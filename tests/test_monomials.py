import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekcells import Monomial
from ekcells.monomials import FACTOR_LIMIT, from_squares, square_items, square_str
from conftest import mono


def compare(a, b):
    """-1, 0 or +1 according to a < b, a == b, a > b, from the operators."""
    return (a > b) - (a < b)


class TestLexOrder:
    def test_forced_by_definition(self):
        assert mono("x1*x3", 3) > mono("x2^2", 3)

    def test_equal(self):
        a, b = mono("x3^2", 3), mono("x3^2", 3)
        assert a == b and a <= b and a >= b and not a < b and not a > b

    def test_first_differing_slot(self):
        assert mono("x2*x3", 3) > mono("x3^2", 3)

    def test_mismatched_ring(self):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            with pytest.raises(ValueError):
                getattr(mono("x1", 2), op)(mono("x1", 3))

    def test_total_order(self):
        monos = [Monomial(e) for e in itertools.product(range(3), repeat=3)]
        srt = sorted(monos)
        for a, b in zip(srt, srt[1:]):
            assert compare(a, b) == -1
        # exactly one of <, ==, > on every pair, and antisymmetry
        for a in monos:
            for b in monos:
                assert (a < b) + (a == b) + (a > b) == 1
                assert compare(a, b) == -compare(b, a)
                assert (a <= b) == (a < b or a == b) and (a >= b) == (a > b or a == b)


class TestBasicOps:
    def test_lcm(self):
        assert mono("x1*x2", 3).lcm(mono("x2*x3", 3)) == mono("x1*x2*x3", 3)

    def test_support_and_max(self):
        m = mono("x1^2*x4*x6^2", 6)
        assert m.support() == (1, 4, 6)
        assert m.max_var() == 6

    def test_deg_i(self):
        assert mono("x3^2", 3).deg(3) == 2
        assert mono("x3^2", 3).deg(1) == 0

    def test_unit_has_no_extreme_vars(self):
        with pytest.raises(ValueError):
            Monomial.unit(3).max_var()

    def test_exact_division(self):
        m = mono("x1^2*x2", 3)
        assert m.div(mono("x1*x2", 3)) == mono("x1", 3)
        with pytest.raises(ValueError):
            m.div(mono("x3", 3))

    def test_lcm_properties(self):
        rng = random.Random(7)
        for _ in range(200):
            a = Monomial(rng.randrange(4) for _ in range(4))
            b = Monomial(rng.randrange(4) for _ in range(4))
            c = Monomial(rng.randrange(4) for _ in range(4))
            assert a.lcm(b) == b.lcm(a)
            assert a.lcm(a) == a
            assert a.lcm(b.lcm(c)) == a.lcm(b).lcm(c)
            assert a.divides(a.lcm(b))
            for i in range(1, 5):
                assert a.lcm(b).deg(i) == max(a.deg(i), b.deg(i))

    def test_sorted_factors(self):
        assert mono("x1^2*x4*x6^2", 6).sorted_factors() == [1, 1, 4, 6, 6]

    def test_sorted_factors_stop_at_the_limit(self):
        assert len(Monomial((0, FACTOR_LIMIT)).sorted_factors()) == FACTOR_LIMIT
        with pytest.raises(ValueError, match=f"cannot list the {FACTOR_LIMIT + 1} factors"):
            Monomial((1, FACTOR_LIMIT)).sorted_factors()


class TestParsing:
    def test_vector_form(self):
        assert Monomial.parse("2 0 0", 3) == mono("x1^2", 3)

    def test_symbolic_form(self):
        assert Monomial.parse("x1^2*x3", 3).exps == (2, 0, 1)

    def test_unit(self):
        assert Monomial.parse("1", 3).is_unit()

    def test_str_round_trip(self):
        for text in ("x1^2*x3", "x2", "1", "x1*x2*x3"):
            m = Monomial.parse(text, 3)
            assert Monomial.parse(str(m), 3) == m

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Monomial.parse("x4", 3)
        with pytest.raises(ValueError):
            Monomial.parse("1 2", 3)
        with pytest.raises(ValueError):
            Monomial.parse("y1", 3)


SQUARES = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))


class TestBiMonomial:
    """Monomials of a doubly indexed ring k[x_s | s in squares]."""

    def test_from_factors_counts_multiplicity(self):
        b = from_squares(SQUARES, [(1, 1), (1, 1), (2, 3)])
        assert b == Monomial((2, 0, 0, 0, 1))
        assert not b.is_squarefree()
        with pytest.raises(ValueError, match=r"x\[3,1\] is not a variable"):
            from_squares(SQUARES, [(3, 1)])

    def test_divides_lcm_div(self):
        a = from_squares(SQUARES, [(1, 1), (2, 2)])
        b = from_squares(SQUARES, [(1, 1)])
        assert b.divides(a)
        assert a.div(b) == from_squares(SQUARES, [(2, 2)])
        assert a.lcm(b) == a
        with pytest.raises(ValueError):
            b.div(a)

    def test_no_stored_zero_exponents(self):
        b = from_squares(SQUARES, [(2, 1)])
        assert square_items(b, SQUARES) == (((2, 1), 1),)
        assert square_items(Monomial.unit(5), SQUARES) == ()
        with pytest.raises(ValueError):
            square_items(b, SQUARES[:4])

    def test_str(self):
        b = from_squares(SQUARES, [(2, 1), (1, 1), (1, 1)])
        assert square_str(b, SQUARES) == "x[1,1]^2*x[2,1]"
        assert square_str(Monomial.unit(5), SQUARES) == "1"
        assert square_str(b, None) == str(b) == "x1^2*x3"


# Differential tests of the arithmetic results, which are built from their
# exponent tuples without the public constructor's checks: each must equal
# the reference formula put through the validating ``Monomial(...)`` and hold
# a tuple of exact ints.

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def same_ring(draw, count=2):
    n = draw(st.integers(min_value=1, max_value=6))
    # bools coerce to ints at the public constructor
    exps = st.lists(st.integers(min_value=0, max_value=5) | st.booleans(),
                    min_size=n, max_size=n)
    return tuple(Monomial(draw(exps)) for _ in range(count))


def assert_exact(m):
    assert type(m) is Monomial
    assert type(m.exps) is tuple
    assert all(type(e) is int for e in m.exps)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestArithmeticProperties:
    @PROPERTY
    @given(same_ring())
    def test_product_lcm_quotient(self, pair):
        a, b = pair
        assert_exact(a)
        results = [a * b, a.lcm(b), (a * b).div(b)]
        assert results == [
            Monomial(x + y for x, y in zip(a.exps, b.exps)),
            Monomial(max(x, y) for x, y in zip(a.exps, b.exps)),
            a,
        ]
        divides = all(y <= x for x, y in zip(a.exps, b.exps))
        assert b.divides(a) is divides
        if divides:
            results.append(a.div(b))
            assert a.div(b) == Monomial(x - y for x, y in zip(a.exps, b.exps))
        else:
            assert raised(a.div, b) == (ValueError, f"{b} does not divide {a}")
        for m in results:
            assert_exact(m)

    @PROPERTY
    @given(same_ring(count=1), st.integers(min_value=-2, max_value=8))
    def test_variable_shifts(self, one, i):
        (a,) = one
        n = a.n
        if not 1 <= i <= n:
            message = f"variable index {i} out of range 1..{n}"
            for fn in (a.times_var, a.div_var, lambda i: Monomial.variable(n, i)):
                assert raised(fn, i) == (ValueError, message)
            return
        var = Monomial(1 if k == i else 0 for k in range(1, n + 1))
        results = [Monomial.variable(n, i), a.times_var(i)]
        assert results == [var, Monomial(x + y for x, y in zip(a.exps, var.exps))]
        if a.deg(i):
            results.append(a.div_var(i))
            assert results[-1] == Monomial(x - y for x, y in zip(a.exps, var.exps))
        else:
            assert raised(a.div_var, i) == (ValueError, f"x{i} does not divide {a}")
        for m in results:
            assert_exact(m)

    @PROPERTY
    @given(same_ring(count=1), same_ring(count=1))
    def test_operand_checks(self, one, other):
        (a,), (b,) = one, other
        ops = (a.__mul__, a.lcm, a.div, a.divides, a.__lt__)
        if a.n != b.n:
            message = f"variable count mismatch: {a.n} != {b.n}"
            for op in ops:
                assert raised(op, b) == (ValueError, message)
        for op in ops:
            assert raised(op, b.exps) == (TypeError, "expected Monomial, got tuple")

    @PROPERTY
    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=6))
    def test_public_constructor_validates(self, exps):
        if min(exps) < 0:
            message = f"exponents must be nonnegative: {tuple(exps)}"
            assert raised(Monomial, exps) == (ValueError, message)
        else:
            assert_exact(Monomial(exps))

    def test_power_coerces_a_float_exponent(self):
        m = mono("x1^2*x3", 3) ** 2.0
        assert m == mono("x1^4*x3^2", 3)
        assert_exact(m)

    @pytest.mark.parametrize("exps, bad", [
        ([1.5, 0], "1.5"), ([0, 2, 0.25], "0.25"), ([Fraction(3, 2)], "Fraction(3, 2)"),
    ])
    def test_constructor_rejects_a_fractional_exponent(self, exps, bad):
        assert raised(Monomial, exps) == (ValueError, f"exponents must be integers, got {bad}")

    @pytest.mark.parametrize("k", [1.5, 0.5, Fraction(1, 2)])
    def test_power_rejects_a_fractional_power(self, k):
        # x1^2 ** 1.5 has the integral exponent 3, and is rejected all the same
        assert raised(mono("x1^2", 2).__pow__, k) == (
            ValueError, f"power must be an integer, got {k!r}")

    def test_integral_floats_and_bools_coerce(self):
        for m in (Monomial([2.0, True, False]), Monomial([Fraction(4, 2), 1, 0]),
                  mono("x1^2*x2", 3) ** True, mono("x1^2*x2", 3) ** Fraction(2, 2)):
            assert m == mono("x1^2*x2", 3)
            assert_exact(m)
