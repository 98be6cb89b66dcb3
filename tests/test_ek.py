import random
import re
from dataclasses import replace
from itertools import combinations
from math import comb, prod

import pytest

from ekcells import (
    AdmissiblePair,
    admissible_pairs,
    ek_complex,
    modified_complex,
    random_borel_ideal,
)
from ekcells.ek import EK, _resolution, kind_of
from ekcells.polarization import bpol_lifts
from ekcells.verification import (
    check_d2,
    check_minimality,
    check_multidegrees,
    check_pair_counts,
)
from conftest import b_set, ideal, mono, stable_closures


class TestAdmissiblePairs:
    def test_counts_degree2(self, deg2):
        assert [len(admissible_pairs(deg2, q)) for q in range(4)] == [6, 8, 3, 0]

    def test_q0_one_per_generator(self, tri_sq):
        pairs = admissible_pairs(tri_sq, 0)
        assert [p.F for p in pairs] == [()] * 5
        assert {p.m for p in pairs} == set(tri_sq.gens)

    def test_counts_tri_tri(self, tri_tri):
        assert [len(admissible_pairs(tri_tri, q)) for q in range(3)] == [5, 6, 2]

    def test_binomial_count_formula(self):
        rng = random.Random(5)
        for _ in range(20):
            J = random_borel_ideal(rng)
            for q in range(5):
                expected = sum(comb(m.max_var() - 1, q) for m in J.gens)
                assert len(admissible_pairs(J, q)) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissiblePair((1, 1), mono("x3", 3))
        with pytest.raises(ValueError):
            AdmissiblePair((3,), mono("x3", 3))
        with pytest.raises(ValueError):
            AdmissiblePair((0,), mono("x3", 3))

    @pytest.mark.parametrize("F, message", [
        ((0, 1), ">= 1"),
        ((2, 1), "strictly increasing"),
        ((1, 3), "must stay below max"),
    ])
    def test_index_set_is_validated(self, F, message):
        with pytest.raises(ValueError, match=message):
            AdmissiblePair(F, mono("x3^2", 3))


class TestBSet:
    def test_full(self, deg2):
        assert b_set(deg2, (1, 2), mono("x3^2", 3)) == (1, 2)

    def test_empty_index_set(self, deg2):
        assert b_set(deg2, (), mono("x3^2", 3)) == ()

    def test_single(self, deg2):
        assert b_set(deg2, (1,), mono("x2^2", 3)) == (1,)

    def test_blocked(self, deg2):
        # g(x1 * x1x3) = x1^2 has max 1, so removing 1 from {1,2} fails
        assert b_set(deg2, (1, 2), mono("x1*x3", 3)) == (2,)


class TestDifferential:
    def test_worked_column(self, deg2):
        cplx = ek_complex(deg2)
        pair = AdmissiblePair((1, 2), mono("x3^2", 3))
        col = cplx.basis[2].index(pair)
        entries = {cplx.basis[1][row]: entry
                   for (row, c), entry in cplx.boundary(2).items() if c == col}
        expect = {
            AdmissiblePair((2,), mono("x3^2", 3)): (-1, mono("x1", 3)),
            AdmissiblePair((1,), mono("x3^2", 3)): (1, mono("x2", 3)),
            AdmissiblePair((2,), mono("x1*x3", 3)): (1, mono("x3", 3)),
            AdmissiblePair((1,), mono("x2*x3", 3)): (-1, mono("x3", 3)),
        }
        assert entries == expect

    def test_removal_outside_b_has_single_term(self, deg2):
        # in the column of ({1,2}, x1*x3), index 1 is outside B, so removing
        # it contributes only the plain term -x1 * e({2}, x1*x3)
        cplx = ek_complex(deg2)
        pair = AdmissiblePair((1, 2), mono("x1*x3", 3))
        col = cplx.basis[2].index(pair)
        entries = {cplx.basis[1][row]: entry
                   for (row, c), entry in cplx.boundary(2).items() if c == col}
        assert len(entries) == 3
        assert entries[AdmissiblePair((2,), mono("x1*x3", 3))] == (-1, mono("x1", 3))

    def test_f_vector(self, deg2):
        assert ek_complex(deg2).ranks == (6, 8, 3)

    def test_rejects_non_stable(self):
        with pytest.raises(ValueError, match="not stable"):
            ek_complex(ideal(2, "x2^2"))

    def test_structure_on_random_ideals(self):
        rng = random.Random(17)
        for _ in range(15):
            J = random_borel_ideal(rng)
            cplx = ek_complex(J)
            check_d2(cplx)
            check_minimality(cplx)
            check_multidegrees(cplx)
            check_pair_counts(J, cplx)

    def test_deterministic_construction(self, deg2):
        c1, c2 = ek_complex(deg2), ek_complex(deg2)
        assert c1.basis == c2.basis
        assert c1.diffs == c2.diffs

    def test_json_export_shape(self, deg2):
        data = ek_complex(deg2).to_json_dict()
        assert data["ranks"] == [6, 8, 3]
        assert data["basis"][0][0] == {"F": [], "m": [2, 0, 0]}
        entry = data["diffs"][0]["entries"][0]
        assert set(entry) == {"row", "col", "sign", "coeff_exponents"}


def reference_resolution(kind, J):
    """The basis, degrees and differentials of the kind's resolution of J,
    with B(F, m) read straight off its definition: i is in B(F, m) when every
    other index of F stays below max(m_i) and keeps its variable under m_i."""
    rules = kind_of(kind)
    squares = bpol_lifts(J)[0] if kind == "modified" else None
    lift = {m: rules.lift(m, squares) for m in J.gens}
    basis = [[(F, m) for m in J.gens for F in combinations(range(1, m.max_var()), q)]
             for q in range(J.max_max())]
    mdegs = [[prod((rules.variable(m, i, squares) for i in F), start=lift[m]) for F, m in layer]
             for layer in basis]
    diffs = []
    for q in range(1, len(basis)):
        row = {pair: k for k, pair in enumerate(basis[q - 1])}
        mat = {}
        for col, (F, m) in enumerate(basis[q]):
            for r, i in enumerate(F, start=1):
                rest = tuple(k for k in F if k != i)
                x = rules.variable(m, i, squares)
                mat[(row[(rest, m)], col)] = ((-1) ** r, x)
                m2 = rules.shift(J, m, i)
                if all(k < m2.max_var() and rules.index(m2, k) == rules.index(m, k)
                       for k in rest):
                    mat[(row[(rest, m2)], col)] = (-(-1) ** r, (x * lift[m]).div(lift[m2]))
        diffs.append(mat)
    return squares, basis, mdegs, diffs


class TestShiftTableOracle:
    """Each build reads m_i, B(F, m) and the shifted coefficient off one
    table per generator; the reference recomputes them for every column."""

    @staticmethod
    def assert_matches_reference(kind, J):
        cplx = ek_complex(J) if kind == "ek" else modified_complex(J)
        squares, basis, mdegs, diffs = reference_resolution(kind, J)
        assert cplx.squares == squares
        assert [[(p.F, p.m) for p in layer] for layer in cplx.basis] == basis, J
        assert all(p.kind is kind_of(kind) for layer in cplx.basis for p in layer)
        assert cplx.mdegs == mdegs, J
        assert cplx.diffs == diffs, J

    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_random_borel_ideals(self, kind):
        rng = random.Random(61)
        for _ in range(25):
            self.assert_matches_reference(kind, random_borel_ideal(rng, max_n=5, max_deg=4))

    def test_stable_ideals_that_are_not_borel_fixed(self):
        ideals = [J for J in stable_closures() if not J.is_borel_fixed()]
        assert ideals
        for J in ideals:
            self.assert_matches_reference("ek", J)

    def test_undivisible_coefficient_names_the_first_pair(self, deg2):
        # squared lifts: x1 * (x1*x2)^2 / (x1^2)^2 is not a monomial
        squared = replace(EK, lifts=lambda J: (None, {m: m * m for m in J.gens}))
        with pytest.raises(RuntimeError, match=re.escape(
                "differential coefficient not divisible at e({1};x1*x2), i = 1: "
                "x1^4 does not divide x1^3*x2^2")):
            _resolution(squared, deg2, ("S", deg2.n))
