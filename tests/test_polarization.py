import itertools
import random

import pytest

from ekcells import (
    Monomial,
    b_shift,
    bpol_monomial,
    bpol_squares,
    column_bound,
    ek_complex,
    g_shift,
    modified_complex,
    random_borel_ideal,
    sigma_ideal,
    sigma_monomial,
    specialize_theta,
    specialize_theta_prime,
    stairs_diagram,
    strand_exactness,
)
from ekcells.monomials import square_items, square_str
from ekcells import polarization
from ekcells.cli import main
from ekcells.polarization import bpol_lifts
from ekcells.suite import NAMED_IDEALS, criterion_5, named_ideal
from ekcells.verification import full_battery
from conftest import ideal, mono


class TestBpol:
    def test_worked_monomial(self):
        m = mono("x1^2*x4*x6^2", 6)
        squares = ((1, 1), (1, 2), (4, 3), (6, 4), (6, 5))
        assert bpol_squares(m) == squares
        # in a ring with squares bpol(m) does not use
        ring = tuple(sorted(squares + ((2, 1), (6, 6))))
        assert square_items(bpol_monomial(m, ring), ring) == tuple((s, 1) for s in squares)

    def test_intro_ideal(self, intro):
        ring, lifts = bpol_lifts(intro)
        assert ring == ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))
        assert [square_str(b, ring) for b in lifts.values()] == [
            "x[1,1]*x[1,2]",
            "x[1,1]*x[2,2]",
            "x[2,1]*x[2,2]*x[2,3]",
        ]

    def test_single_factor(self):
        assert bpol_squares(mono("x3", 3)) == ((3, 1),)
        assert bpol_monomial(mono("x3", 3), ((1, 1), (3, 1))) == Monomial((0, 1))

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            bpol_squares(Monomial.unit(2))
        with pytest.raises(ValueError):
            bpol_monomial(Monomial.unit(2), ((1, 1),))

    def test_always_squarefree_and_injective(self):
        monos = [
            Monomial(e)
            for e in itertools.product(range(3), repeat=3)
            if any(e)
        ]
        ring = tuple(sorted({s for m in monos for s in bpol_squares(m)}))
        images = [bpol_monomial(m, ring) for m in monos]
        assert all(b.is_squarefree() for b in images)
        assert len(set(images)) == len(monos)

    def test_lifts_agree_with_the_independent_lift(self):
        # the ideals of criteria 6 and 7 (their seeds), the named ideals and
        # (x1, x2^k): bpol_lifts' ring is the sorted squares of every bpol(m),
        # and its slot map lifts each generator as bpol_monomial does
        rng6, rng7 = random.Random(20260810), random.Random(20260811)
        ideals = [random_borel_ideal(rng6) for _ in range(200)]
        ideals += [random_borel_ideal(rng7, cm=True) for _ in range(50)]
        ideals += [build() for build in NAMED_IDEALS.values()]
        ideals += [ideal(2, "x1", f"x2^{k}") for k in (1, 2, 3, 5)]
        for J in ideals:
            ring, lifts = bpol_lifts(J)
            assert ring == tuple(sorted({s for m in J.gens for s in bpol_squares(m)}))
            assert list(lifts.items()) == [(m, bpol_monomial(m, ring)) for m in J.gens]


class TestBShift:
    def test_intro_example(self):
        assert b_shift(mono("x1*x2", 2), 1) == mono("x1^2", 2)

    def test_big_example(self):
        assert b_shift(mono("x1^2*x4*x6^2", 6), 3) == mono("x1^2*x3*x6^2", 6)

    def test_power(self):
        assert b_shift(mono("x3^2", 3), 2) == mono("x2*x3", 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            b_shift(mono("x3^2", 3), 3)
        with pytest.raises(ValueError):
            b_shift(Monomial.unit(3), 1)

    def test_stays_in_borel_ideal(self):
        rng = random.Random(23)
        for _ in range(30):
            J = random_borel_ideal(rng)
            for m in J.gens:
                for s in range(1, m.max_var()):
                    assert b_shift(m, s) in J


class TestGShift:
    def test_power_shift(self, intro):
        assert g_shift(intro, mono("x2^3", 2), 1) == mono("x1*x2", 2)

    def test_generator_hit(self, intro):
        assert g_shift(intro, mono("x1*x2", 2), 1) == mono("x1^2", 2)

    def test_fixes_when_exchange_is_generator(self, deg2):
        # b_1(x2*x3) = x1*x3 is itself a generator
        assert g_shift(deg2, mono("x2*x3", 3), 1) == mono("x1*x3", 3)

    def test_prefix_agreement_and_growth(self):
        rng = random.Random(29)
        for _ in range(30):
            J = random_borel_ideal(rng)
            for m in J.gens:
                for s in range(1, m.max_var()):
                    ms = g_shift(J, m, s)
                    fb = b_shift(m, s)
                    assert all(ms.deg(l) == fb.deg(l) for l in range(1, s + 1))
                    assert ms.max_var() >= s
                    assert ms > m


class TestSigma:
    def test_intro_ideal(self, intro):
        got = sigma_ideal(intro)
        assert got.n == 4
        assert [str(m) for m in got.gens] == ["x1*x2", "x1*x3", "x2*x3*x4"]
        assert got.is_sqfree_strongly_stable()

    def test_self_check_builds_only_the_squarefree_moves(self, monkeypatch):
        # sigma of (x1, x2^64) is (x1, x2*x3*...*x65): x1 is the one slot
        # outside the second generator's support, so the self-check moves
        # each of its 64 variables there, and I's Borel check makes one move;
        # building every move first made 2,081
        calls = []
        real = Monomial.times_var
        monkeypatch.setattr(Monomial, "times_var", lambda m, i: calls.append(i) or real(m, i))
        assert sigma_ideal(ideal(2, "x1", "x2^64")).n == 65
        assert len(calls) == 65

    def test_degree_one_identity(self):
        assert sigma_monomial(mono("x1", 3), 3) == mono("x1", 3)

    def test_power(self):
        assert sigma_monomial(mono("x3^2", 3), 4) == mono("x3*x4", 4)

    def test_degree_preserved_and_squarefree(self):
        rng = random.Random(31)
        for _ in range(100):
            exps = [rng.randrange(3) for _ in range(3)]
            if not any(exps):
                continue
            m = Monomial(exps)
            s = sigma_monomial(m, 3 + m.degree())
            assert s.degree() == m.degree()
            assert s.is_squarefree()


class TestPolarizationCount:
    """Each route polarizes a generator once per lift it needs, counted as
    ``bpol_squares`` calls."""

    @pytest.mark.parametrize("route, count", [
        # one bpol_lifts on 3 generators
        (lambda: main(["polarize", "--named", "intro"]), 3),
        # one bpol_lifts, and the two stairs diagrams' black squares
        (criterion_5, 5),
        # on 8 generators: the build, the strand check's own lift, and the
        # shift check's bpol_lifts; the EL sweep reads the build's lifts
        (lambda: full_battery(named_ideal("deg4")), 24),
    ], ids=["polarize", "criterion-5", "full-battery"])
    def test_generator_polarizations(self, route, count, monkeypatch, capsys):
        calls = []
        real = polarization.bpol_squares
        monkeypatch.setattr(polarization, "bpol_squares", lambda m: calls.append(m) or real(m))
        route()
        assert len(calls) == count


class TestSpecializations:
    def test_entry_substitution(self):
        # x[2,3] goes to x2 under theta and to x4 under theta'
        J = ideal(2, "x1^2", "x1*x2", "x2^3")
        cplx = modified_complex(J)
        th = specialize_theta(cplx)
        tp = specialize_theta_prime(cplx)
        assert th.ring == ("S", 2)
        assert tp.ring == ("T", 4)
        # depolarization returns the generator degrees
        assert [md for md in th.mdegs[0]] == [m for m in J.gens]

    def test_theta_resolves_original(self, deg2):
        th = specialize_theta(modified_complex(deg2))
        assert strand_exactness(th, list(deg2.gens)).ok

    def test_theta_prime_resolves_shift(self, deg2):
        tp = specialize_theta_prime(modified_complex(deg2))
        assert strand_exactness(tp, list(sigma_ideal(deg2).gens)).ok

    def test_wrong_ring_rejected(self, deg2):
        with pytest.raises(ValueError):
            specialize_theta(ek_complex(deg2))

    def test_context_bound(self, deg2):
        with pytest.raises(ValueError):
            column_bound(deg2, d=1)
        assert column_bound(deg2) == 2
        assert sigma_ideal(deg2, d=5).n == 7


class TestStairsDiagram:
    def test_single_black_square(self):
        assert stairs_diagram((), mono("x1", 1)) == "■"

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            stairs_diagram(((1, 1),), mono("x1", 1))

    def test_column_structure(self):
        # one black square at the bottom of each column for a maximal pair
        m = mono("x1^2*x4*x6^2", 6)
        from ekcells import AdmissiblePair

        full = AdmissiblePair((1, 2, 3, 4, 5), m, "modified")
        grid = stairs_diagram(full.indices, m).splitlines()
        for j in range(5):
            column = [row[j] for row in grid]
            assert column.count("■") == 1
