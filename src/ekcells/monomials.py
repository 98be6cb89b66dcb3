"""Exact monomial arithmetic for k[x_1,...,x_n] and for rings of doubly
indexed variables x_{i,j}.

Variable indices are 1-based throughout.  ``Monomial`` carries the
lexicographic order with x_1 > x_2 > ... > x_n on its comparison operators.
It is immutable and hashable, so it is safe to share freely (including
across threads).

A ring k[x_s | s in squares] of doubly indexed variables, ``squares`` a
strictly increasing tuple of squares s = (i, j), is a ``Monomial`` ring with
one slot per square: x_s is slot k where squares[k] = s.  ``from_squares``,
``square_items`` and ``square_str`` read and write this layout; only
``polarization.bpol_lifts`` builds a slot map of its own, on purpose, so that
the lift through ``from_squares`` can check it.

Input is validated at the public constructors (``Monomial(exps)``, ``parse``,
``from_factors``, ``unit``, ``**``).  Products, quotients, lcms, variables and
variable shifts of valid monomials, and the factor counts of ``from_squares``,
are already tuples of nonnegative ints, so ``Monomial`` builds those results
straight from their tuples without checking them again.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left

__all__ = ["Monomial", "from_squares", "square_items", "square_str"]

_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?\Z")

# The most factors ``sorted_factors`` lists.  Polarizing a monomial gives
# one variable per factor, so a degree above this would make a list, and a
# ring, of millions of entries.
FACTOR_LIMIT = 1 << 20


class Monomial:
    """A monomial of k[x_1..x_n], stored as a dense exponent tuple."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        given = tuple(exps)
        exps = tuple(map(int, given))
        if exps != given:
            bad = next(e for e, k in zip(given, exps) if e != k)
            raise ValueError(f"exponents must be integers, got {bad!r}")
        if not exps:
            raise ValueError("variable count must be at least 1")
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be nonnegative: {exps}")
        self.exps = exps

    @classmethod
    def _of(cls, exps: tuple) -> "Monomial":
        """The monomial with exponent tuple ``exps``, unchecked: only for
        tuples of exact nonnegative ints made by arithmetic on monomials."""
        m = object.__new__(cls)
        m.exps = exps
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, n: int, i: int) -> "Monomial":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        return cls._of((0,) * (i - 1) + (1,) + (0,) * (n - i))

    @classmethod
    def from_factors(cls, n: int, indices) -> "Monomial":
        """Monomial with one factor x_i per entry of ``indices``."""
        exps = [0] * n
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"variable index {i} out of range 1..{n}")
            exps[i - 1] += 1
        return cls(exps)

    @classmethod
    def parse(cls, text: str, n: int) -> "Monomial":
        """Parse either an exponent vector ("2 0 1") or a product ("x1^2*x3")."""
        s = text.strip()
        if not s:
            raise ValueError("empty monomial string")
        if s == "1":
            return cls.unit(n)
        if "x" in s:
            exps = [0] * n
            for factor in s.split("*"):
                m = _FACTOR_RE.match(factor.strip())
                if m is None:
                    raise ValueError(f"cannot parse monomial factor {factor!r}")
                i = int(m.group(1))
                e = int(m.group(2)) if m.group(2) else 1
                if not 1 <= i <= n:
                    raise ValueError(f"variable index {i} out of range 1..{n}")
                exps[i - 1] += e
            return cls(exps)
        parts = s.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} exponents, got {len(parts)}: {s!r}")
        exps = []
        for p in parts:
            try:
                exps.append(int(p))
            except ValueError:
                raise ValueError(f"exponent {p!r} is not an integer") from None
        return cls(exps)

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.exps)

    def degree(self) -> int:
        return sum(self.exps)

    def deg(self, i: int) -> int:
        """The exponent of x_i, i.e. the largest k with x_i^k dividing self."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        return self.exps[i - 1]

    def support(self) -> tuple:
        return tuple(i for i, e in enumerate(self.exps, 1) if e)

    def is_unit(self) -> bool:
        return not any(self.exps)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def max_var(self) -> int:
        exps = self.exps
        for i in range(len(exps), 0, -1):
            if exps[i - 1]:
                return i
        raise ValueError("max_var of the unit monomial")

    def sorted_factors(self) -> list:
        """Variable indices with multiplicity, nondecreasing; at most
        ``FACTOR_LIMIT`` of them."""
        if self.degree() > FACTOR_LIMIT:
            raise ValueError(f"cannot list the {self.degree()} factors of {self}")
        out = []
        for i, e in enumerate(self.exps, 1):
            out.extend([i] * e)
        return out

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Monomial"):
        if not isinstance(other, Monomial):
            raise TypeError(f"expected Monomial, got {type(other).__name__}")
        if len(self.exps) != len(other.exps):
            raise ValueError(f"variable count mismatch: {self.n} != {other.n}")

    def divides(self, other: "Monomial") -> bool:
        self._check_ring(other)
        return all(map(operator.le, self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_ring(other)
        return Monomial._of(tuple([a if a > b else b
                                   for a, b in zip(self.exps, other.exps)]))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_ring(other)
        return Monomial._of(tuple(map(operator.add, self.exps, other.exps)))

    def div(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if other does not divide self."""
        self._check_ring(other)
        if not all(map(operator.le, other.exps, self.exps)):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial._of(tuple(map(operator.sub, self.exps, other.exps)))

    def times_var(self, i: int) -> "Monomial":
        return self._shift(i, 1)

    def div_var(self, i: int) -> "Monomial":
        return self._shift(i, -1)

    def _shift(self, i: int, step: int) -> "Monomial":
        """self with the exponent of x_i moved by ``step`` (1 or -1)."""
        exps = list(self.exps)
        if not 1 <= i <= len(exps):
            raise ValueError(f"variable index {i} out of range 1..{len(exps)}")
        exps[i - 1] += step
        if exps[i - 1] < 0:
            raise ValueError(f"x{i} does not divide {self}")
        return Monomial._of(tuple(exps))

    def __pow__(self, k: int) -> "Monomial":
        if int(k) != k:
            raise ValueError(f"power must be an integer, got {k!r}")
        if k < 0:
            raise ValueError("negative power")
        return Monomial(e * k for e in self.exps)

    # -- order and identity --------------------------------------------------
    # Tuple comparison on dense exponent vectors is exactly the lexicographic
    # order with x_1 > x_2 > ... > x_n.

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __lt__(self, other):
        self._check_ring(other)
        return self.exps < other.exps

    def __le__(self, other):
        self._check_ring(other)
        return self.exps <= other.exps

    def __gt__(self, other):
        self._check_ring(other)
        return self.exps > other.exps

    def __ge__(self, other):
        self._check_ring(other)
        return self.exps >= other.exps

    def __repr__(self):
        return f"Monomial({self})"

    def __str__(self):
        if self.is_unit():
            return "1"
        parts = []
        for i, e in enumerate(self.exps, 1):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)


def from_squares(squares: tuple, factors) -> Monomial:
    """The monomial of k[x_s | s in squares] with one factor x_s per entry of
    ``factors``.  Each factor tries the slot after the previous factor's
    first, where the next square of one variable of bpol(m) sits, and
    bisects only when that misses."""
    exps = [0] * len(squares)
    k = -1
    for s in factors:
        k += 1
        if k == len(squares) or squares[k] != s:
            k = bisect_left(squares, s)
            if k == len(squares) or squares[k] != s:
                raise ValueError(f"x[{s[0]},{s[1]}] is not a variable of the ring")
        exps[k] += 1
    return Monomial._of(tuple(exps))


def square_items(m: Monomial, squares: tuple) -> tuple:
    """The pairs (s, e) with e > 0 of a monomial of k[x_s | s in squares], in
    the order of ``squares``."""
    return tuple((s, e) for s, e in zip(squares, m.exps, strict=True) if e)


def square_str(m: Monomial, squares) -> str:
    """m as text: factors x[i,j]^e on the ring of ``squares``, or ``str(m)``
    when ``squares`` is None (the ring k[x_1..x_n])."""
    if squares is None:
        return str(m)
    items = square_items(m, squares)
    if not items:
        return "1"
    return "*".join(f"x[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in items)
