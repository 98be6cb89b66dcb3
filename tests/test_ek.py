import random
from math import comb

import pytest

from ekcells import (
    AdmissiblePair,
    admissible_pairs,
    b_set,
    ek_complex,
    random_borel_ideal,
)
from ekcells.verification import (
    check_d2,
    check_minimality,
    check_multidegrees,
    check_pair_counts,
)
from conftest import ideal, mono


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

    @pytest.mark.parametrize("F, message", [
        ((0, 1), ">= 1"),
        ((2, 1), "strictly increasing"),
        ((1, 3), "must stay below max"),
    ])
    def test_index_set_is_validated(self, deg2, F, message):
        with pytest.raises(ValueError, match=message):
            b_set(deg2, F, mono("x3^2", 3))


class TestDifferential:
    def test_worked_column(self, deg2):
        cplx = ek_complex(deg2)
        pair = AdmissiblePair((1, 2), mono("x3^2", 3))
        col = cplx.basis[2].index(pair)
        entries = {}
        for row, sign, coeff in cplx.column(2, col):
            entries[cplx.basis[1][row]] = (sign, coeff)
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
        entries = {
            cplx.basis[1][row]: (sign, coeff)
            for row, sign, coeff in cplx.column(2, col)
        }
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
