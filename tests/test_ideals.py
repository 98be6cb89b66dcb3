import random
import re
from itertools import combinations, product

import pytest

from ekcells import (
    Monomial,
    MonomialIdeal,
    borel_closure,
    format_ideal,
    parse_ideal,
    random_borel_ideal,
)
from ekcells.polarization import sigma_ideal
from ekcells.suite import NAMED_IDEALS, named_ideal
from ekcells.verification import _exponents_up_to, check_g_properties
from conftest import criterion_draws, ideal, mono, stable_closures


class TestMinimalize:
    def test_divisibility_filter(self):
        got = MonomialIdeal(2, [mono("x1^2", 2), mono("x1^2*x2", 2), mono("x2^3", 2)])
        assert set(got.gens) == {mono("x1^2", 2), mono("x2^3", 2)}

    def test_identity(self):
        got = MonomialIdeal(2, [mono("x1*x2", 2)])
        assert got.gens == (mono("x1*x2", 2),)

    def test_already_minimal(self, intro):
        assert set(intro.gens) == {mono("x1^2", 2), mono("x1*x2", 2), mono("x2^3", 2)}

    def test_idempotent(self, deg2):
        assert MonomialIdeal(deg2.n, deg2.gens) == deg2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [])

    def test_generators_sorted_descending(self, deg2):
        gens = list(deg2.gens)
        assert gens == sorted(gens, reverse=True)


class TestStabilityPredicates:
    def test_intro_is_borel(self, intro):
        assert intro.is_borel_fixed()
        assert intro.is_stable()

    def test_sqfree_strongly_stable(self):
        J = ideal(4, "x1*x2", "x1*x3", "x2*x3*x4")
        assert J.is_sqfree_strongly_stable()

    def test_x2_squared_not_stable(self):
        J = ideal(2, "x2^2")
        assert not J.is_stable()
        assert not J.is_borel_fixed()

    def test_stable_not_borel(self):
        # closed under max-variable exchanges, but x1*(x2*x3/x2) escapes
        J = ideal(3, "x1^2", "x1*x2", "x2^2", "x2*x3")
        assert J.is_stable()
        assert not J.is_borel_fixed()


def exchange(u, i, j):
    """x_i * u / x_j."""
    exps = list(u.exps)
    exps[j - 1] -= 1
    exps[i - 1] += 1
    return Monomial(exps)


def predicates_by_definition(J):
    """Stable, Borel fixed and squarefree strongly stable, each checked on
    every monomial of J up to its largest generator degree."""
    top = J.max_deg()
    monomials = (Monomial(e) for e in product(range(top + 1), repeat=J.n) if 0 < sum(e) <= top)
    members = [u for u in monomials if u in J]
    stable = all(
        exchange(u, i, u.max_var()) in J for u in members for i in range(1, u.max_var())
    )
    borel = all(
        exchange(u, i, j) in J for u in members for j in u.support() for i in range(1, j)
    )
    sqfree = all(m.is_squarefree() for m in J.gens) and all(
        exchange(u, i, j) in J
        for u in members if u.is_squarefree()
        for j in u.support() for i in range(1, j) if u.exps[i - 1] == 0
    )
    return stable, borel, sqfree


def random_generators(rng):
    """Up to 4 random generators in 2-4 variables of degree at most 3, all
    squarefree in a third of the draws."""
    n = rng.randint(2, 4)
    squarefree = rng.random() < 1 / 3
    gens = []
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(1, 3)
        if squarefree:
            factors = rng.sample(range(1, n + 1), min(deg, n))
        else:
            factors = [rng.randint(1, n) for _ in range(deg)]
        gens.append(Monomial.from_factors(n, factors))
    return n, gens


class TestStabilityOracle:
    def test_predicates_match_their_definitions(self):
        # a fifth of the ideals are Borel closures, so every verdict occurs;
        # stable ideals that are not Borel are too rare to draw, so one is added
        rng = random.Random(43)
        ideals = [ideal(3, "x1^2", "x1*x2", "x2^2", "x2*x3")]
        for _ in range(300):
            n, gens = random_generators(rng)
            ideals.append(borel_closure(gens) if rng.random() < 0.2 else MonomialIdeal(n, gens))
        verdicts = []
        for J in ideals:
            got = (J.is_stable(), J.is_borel_fixed(), J.is_sqfree_strongly_stable())
            assert got == predicates_by_definition(J), J
            verdicts.append(got)
        for k in range(3):
            assert {v[k] for v in verdicts} == {True, False}
        assert sum(not stable and not borel for stable, borel, _ in verdicts) > 150
        assert any(stable and not borel for stable, borel, _ in verdicts)


def _membership_ideals():
    """The named ideals, 30 criterion-6 draws and their shifts sigma(I), and
    the stable closures that are not Borel fixed."""
    rng6 = random.Random(20260810)
    draws = [random_borel_ideal(rng6) for _ in range(30)]
    return ([named_ideal(name) for name in NAMED_IDEALS] + draws + [sigma_ideal(J) for J in draws]
            + sorted((J for J in stable_closures() if not J.is_borel_fixed()), key=repr))


class TestMembershipOracle:
    """``in`` looks m up among the generators before it scans those of lower
    degree; the definition scans every generator with ``Monomial.divides``."""

    def test_in_agrees_with_the_divides_scan(self):
        members = outsiders = 0
        for J in _membership_ideals():
            for e in _exponents_up_to(J.n, J.max_deg() + 1):
                m = Monomial._of(e)
                expected = any(g.divides(m) for g in J.gens)
                assert (m in J) == expected, (J, m)
                members += expected
                outsiders += not expected
        assert members and outsiders

    def test_another_ring_raises(self, deg2):
        message = "variable count mismatch: 3 != 4"
        for m in (mono("x1^2", 4), mono("x4", 4), mono("x1^2*x2", 4)):
            with pytest.raises(ValueError, match=message):
                m in deg2  # noqa: B015


class TestDecompositionFunction:
    def test_unique_divisor(self, deg2):
        assert deg2.g(mono("x1*x2*x3", 3)) == mono("x1*x2", 3)

    def test_second_example(self, deg2):
        assert deg2.g(mono("x2*x3^2", 3)) == mono("x2*x3", 3)

    def test_generator_is_fixed(self, deg2):
        for m in deg2.gens:
            assert deg2.g(m) == m

    def test_outside_ideal(self, deg2):
        with pytest.raises(ValueError):
            deg2.g(mono("x3", 3))

    def test_requires_stable(self):
        J = ideal(2, "x2^2")
        with pytest.raises(ValueError):
            J.g(mono("x2^2", 2))

    def test_dual_characterization_on_random_ideals(self):
        # check_g_properties compares g with the max/min witnesses on every
        # member up to one degree above the generators, the x_i * m among them
        rng = random.Random(3)
        for _ in range(25):
            check_g_properties(random_borel_ideal(rng, max_gens=8))


def _oracle_ideals():
    """Seeded random Borel ideals and the stable closures that are not Borel."""
    rng = random.Random(30)
    draws = [random_borel_ideal(rng) for _ in range(30)]
    return draws + sorted((J for J in stable_closures() if not J.is_borel_fixed()), key=repr)


class TestDecompositionOracle:
    """g, cached by exponent tuple, against the lex-greatest generator that
    divides m, found with ``Monomial.divides``."""

    IDEALS = _oracle_ideals()

    def test_stable_closures_are_among_them(self):
        assert sum(not J.is_borel_fixed() for J in self.IDEALS) >= 5

    @pytest.mark.parametrize("J", IDEALS, ids=repr)
    def test_g_is_the_lex_greatest_divisor(self, J):
        bound = J.max_deg() + 2
        monomials = [Monomial(e) for e in product(range(bound + 1), repeat=J.n)
                     if sum(e) <= bound]
        for warm in (False, True):
            for m in monomials:
                divisors = [m0 for m0 in J.gens if m0.divides(m)]
                if divisors:
                    assert J.g(m) == max(divisors), (J, m, warm)
                else:
                    with pytest.raises(ValueError, match=re.escape(f"{m} is not in the ideal")):
                        J.g(m)
                    assert m.exps not in J._g_cache

    @pytest.mark.parametrize("J", IDEALS[::6], ids=repr)
    def test_another_ring_raises_on_a_cold_and_a_warm_cache(self, J):
        J = MonomialIdeal(J.n, J.gens)  # a cold cache
        wider = [Monomial(m.exps + (0,)) for m in J.gens]
        message = f"variable count mismatch: {J.n} != {J.n + 1}"
        with pytest.raises(ValueError, match=message):
            J.g(wider[0])
        for m in J.gens:
            assert J.g(m) is m
        for m in wider:  # warm: each generator's own tuple is cached
            with pytest.raises(ValueError, match=message):
                J.g(m)


class TestHeightAndCM:
    def test_degree2_full_height(self, deg2):
        assert deg2.height() == 3

    def test_principal(self):
        assert ideal(1, "x1").height() == 1

    def test_two_cover(self, tri_tri):
        assert tri_tri.height() == 2

    def test_cm_degree2(self, deg2):
        assert deg2.is_cm_stable() == (True, 3, 2)

    def test_not_cm(self, tri_tri):
        ok, h, l = tri_tri.is_cm_stable()
        assert (ok, h, l) == (False, 3, None)

    def test_principal_cm(self):
        assert ideal(1, "x1").is_cm_stable() == (True, 1, 1)

    def test_height_agrees_with_the_set_search(self):
        # the least size of a set of variables meeting every support, searched
        # on frozensets of variable indices
        def reference(J):
            supports = [frozenset(m.support()) for m in J.gens]
            universe = sorted(frozenset().union(*supports))
            return next(size for size in range(1, len(universe) + 1)
                        for cover in combinations(universe, size)
                        if all(s & set(cover) for s in supports))

        ideals = (criterion_draws(6) + criterion_draws(7)
                  + [named_ideal(name) for name in NAMED_IDEALS])
        heights = [J.height() for J in ideals]
        assert heights == [reference(J) for J in ideals]
        assert len(set(heights)) > 2


class TestBorelClosure:
    def test_from_x2_squared(self):
        got = borel_closure([mono("x2^2", 2)])
        assert set(got.gens) == {mono("x1^2", 2), mono("x1*x2", 2), mono("x2^2", 2)}

    def test_fixed_point(self):
        got = borel_closure([mono("x1", 2)])
        assert got.gens == (mono("x1", 2),)

    def test_from_x2_x3(self):
        got = borel_closure([mono("x2*x3", 3)])
        expected = {"x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3"}
        assert {str(m) for m in got.gens} == expected

    def test_result_is_borel(self):
        rng = random.Random(11)
        for _ in range(50):
            J = random_borel_ideal(rng, max_gens=20)
            assert J.is_borel_fixed()

    def test_draws_are_capped(self):
        class Largest(random.Random):
            # every draw is (x_n)^max_deg in n = max_n variables: 35 generators
            def randint(self, a, b):
                self.calls += 1
                return b

        rng = Largest()
        rng.calls = 0
        with pytest.raises(ValueError, match=r"at most 12 generators in 1000 draws \(max_n=4, max_deg=4\)"):
            random_borel_ideal(rng)
        assert rng.calls == 1000 * (2 + 3 * (1 + 4))  # n, seed count, 3 x (degree, 4 factors)

    def test_cm_generator(self):
        rng = random.Random(12)
        for _ in range(20):
            J = random_borel_ideal(rng, cm=True)
            assert J.is_cm_stable()[0]


class TestIdealFiles:
    def test_round_trip(self, deg2):
        assert parse_ideal(format_ideal(deg2)) == deg2

    def test_comments_and_mixed_syntax(self):
        text = "# a comment\n3 2\n2 0 0\nx2*x3\n"
        J = parse_ideal(text)
        assert set(J.gens) == {mono("x1^2", 3), mono("x2*x3", 3)}

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            parse_ideal("3 2\nx1\n")

    def test_empty(self):
        with pytest.raises(ValueError):
            parse_ideal("# nothing\n")

    def test_unit_generator_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [Monomial.unit(2)])
