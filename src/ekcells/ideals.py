"""Monomial ideals: minimal generators, the stability hierarchy, the
decomposition function g, height, and Cohen-Macaulay detection.

Membership in an ideal means divisibility by some minimal generator; no
further ideal arithmetic is implemented (none is needed by the resolution
constructions).
"""

from __future__ import annotations

from itertools import combinations
from operator import le

from .monomials import Monomial

__all__ = [
    "MonomialIdeal",
    "borel_closure",
    "random_borel_ideal",
    "parse_ideal",
    "read_ideal",
    "format_ideal",
]


class MonomialIdeal:
    """A monomial ideal, stored by its minimal generators.

    Generators are minimalized on construction and kept sorted in the
    descending lexicographic order (x_1 > ... > x_n), which is also the scan
    order used by the decomposition function :meth:`g`.  Instances are
    immutable; all queries are pure and cached where profitable.
    """

    __slots__ = ("n", "gens", "_exps", "_ascending", "_stable", "_borel", "_sqfree_ss",
                 "_g_cache")

    def __init__(self, n: int, gens):
        gens = list(gens)
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        for m in gens:
            if not isinstance(m, Monomial):
                raise TypeError(f"expected Monomial, got {type(m).__name__}")
            if m.n != n:
                raise ValueError(f"generator {m} lives in {m.n} variables, not {n}")
            if m.is_unit():
                raise ValueError("the unit ideal is not supported")
        self.n = n
        self.gens = tuple(sorted(_minimal_subset(gens), reverse=True))
        # for membership: the generators' exponents, and by ascending degree
        self._exps = frozenset(m.exps for m in self.gens)
        self._ascending = sorted((m.degree(), m.exps) for m in self.gens)
        self._stable = None
        self._borel = None
        self._sqfree_ss = None
        self._g_cache = {}

    # -- membership and basic data ------------------------------------------

    def __contains__(self, m: Monomial) -> bool:
        """Whether a generator divides m.  One of m's degree divides it only
        if it is m, and none of greater degree does, so m is looked up among
        the generators before those of lower degree are scanned."""
        self.gens[0]._check_ring(m)
        exps = m.exps
        if exps in self._exps:
            return True
        degree = sum(exps)
        for d, e in self._ascending:
            if d >= degree:
                return False
            if all(map(le, e, exps)):
                return True
        return False

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({self.n}; {', '.join(str(g) for g in self.gens)})"

    def max_deg(self) -> int:
        return max(m.degree() for m in self.gens)

    def max_max(self) -> int:
        """max { max(m) : m in G(I) }; the codimension candidate h."""
        return max(m.max_var() for m in self.gens)

    def top_generators(self) -> list:
        """Generators with max(m) = max_max(), sorted lex-ascending."""
        h = self.max_max()
        return sorted(m for m in self.gens if m.max_var() == h)

    # -- stability hierarchy --------------------------------------------------
    # Checking the exchange moves on the generators suffices for all three
    # predicates.

    def is_stable(self) -> bool:
        if self._stable is None:
            self._stable = all(
                m2 in self for m in self.gens for _, m2 in _exchanges(m, (m.max_var(),))
            )
        return self._stable

    def is_borel_fixed(self) -> bool:
        if self._borel is None:
            self._borel = all(
                m2 in self for m in self.gens for _, m2 in _exchanges(m, m.support())
            )
        return self._borel

    def is_sqfree_strongly_stable(self) -> bool:
        if self._sqfree_ss is None:
            # a move into a slot of supp(m) is not squarefree: skipped unbuilt
            self._sqfree_ss = all(m.is_squarefree() for m in self.gens) and all(
                m.div_var(j).times_var(i) in self
                for m in self.gens
                for j in m.support()
                for i in range(1, j)
                if not m.exps[i - 1]
            )
        return self._sqfree_ss

    # -- the decomposition function g ----------------------------------------

    def g(self, m: Monomial) -> Monomial:
        """The unique generator m0 dividing m with max(m0) <= min(m/m0).

        Computed as the lex-greatest generator dividing m (the two
        characterizations agree for stable ideals;
        ``verification.check_g_properties`` checks the agreement), and
        cached by the exponent tuple of m.  Only tuples of this ring are
        cached, so one ring check on a miss covers every call.
        """
        if not self.is_stable():
            raise ValueError("decomposition function needs a stable ideal")
        exps = m.exps
        cached = self._g_cache.get(exps)
        if cached is not None:
            return cached
        self.gens[0]._check_ring(m)
        for m0 in self.gens:  # descending lex
            if all(map(le, m0.exps, exps)):
                self._g_cache[exps] = m0
                return m0
        raise ValueError(f"{m} is not in the ideal")

    # -- height and Cohen-Macaulayness ----------------------------------------

    def height(self) -> int:
        """Minimum size of a variable set meeting every generator's support."""
        supports = [frozenset(m.support()) for m in self.gens]
        universe = sorted(frozenset().union(*supports))
        for size in range(1, len(universe) + 1):
            for cover in combinations(universe, size):
                cset = set(cover)
                if all(s & cset for s in supports):
                    return size
        raise AssertionError("unreachable: full support set is always a cover")

    def is_cm_stable(self):
        """(is_CM, h, l) for a stable ideal.

        CM holds iff height(I) equals h := max{max(m)}; in that case l is the
        unique exponent with x_h^l a minimal generator.
        """
        if not self.is_stable():
            raise ValueError("Cohen-Macaulay test implemented for stable ideals only")
        h = self.max_max()
        if self.height() != h:
            return (False, h, None)
        powers = [m.degree() for m in self.gens if m.support() == (h,)]
        if len(powers) != 1:
            raise RuntimeError(
                f"CM stable ideal without a unique pure power of x_{h}: "
                f"{self!r} (internal inconsistency)"
            )
        return (True, h, powers[0])


def _exchanges(m: Monomial, slots):
    """The exchange moves (i, x_i * m / x_j) of m, for each j in slots and
    each i < j."""
    for j in slots:
        base = m.div_var(j)
        for i in range(1, j):
            yield i, base.times_var(i)


def _minimal_subset(gens):
    """The minimal monomials of gens under divisibility.  One monomial divides
    another of its degree only if they are equal, so each is tested only
    against those kept from lower degrees."""
    by_degree = {}
    for m in gens:
        by_degree.setdefault(m.degree(), set()).add(m)
    kept = []
    for d in sorted(by_degree):
        kept += [m for m in by_degree[d] if not any(g.divides(m) for g in kept)]
    return kept


def borel_closure(seeds) -> MonomialIdeal:
    """The smallest Borel fixed ideal containing the given monomials.

    Closes the generating set under all exchanges x_i * (m / x_j), i < j;
    exchanges preserve degree, so the closure is finite.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("borel_closure needs at least one seed monomial")
    n = seeds[0].n
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for m in frontier:
            for _, m2 in _exchanges(m, m.support()):
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return MonomialIdeal(n, seen)


MAX_DRAWS = 1000  # draws before random_borel_ideal gives up


def random_borel_ideal(rng, max_n=4, max_deg=4, max_gens=12, cm=False) -> MonomialIdeal:
    """A random Borel fixed ideal within the given size bounds.

    Takes the Borel closure of a few random seed monomials, rejecting results
    with too many generators.  With ``cm=True`` a pure power of x_h is added
    before closing, which forces the Cohen-Macaulay property.  Raises
    ``ValueError`` when ``MAX_DRAWS`` draws in a row are rejected.
    """
    for _ in range(MAX_DRAWS):
        n = rng.randint(2, max_n)
        seeds = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, max_deg)
            seeds.append(
                Monomial.from_factors(n, sorted(rng.randint(1, n) for _ in range(deg)))
            )
        if cm:
            h = max(m.max_var() for m in seeds)
            seeds.append(Monomial.variable(n, h) ** rng.randint(1, max_deg))
        ideal = borel_closure(seeds)
        if len(ideal.gens) > max_gens:
            continue
        if cm and not ideal.is_cm_stable()[0]:
            continue
        return ideal
    raise ValueError(
        f"no {'Cohen-Macaulay ' if cm else ''}Borel ideal with at most {max_gens} "
        f"generators in {MAX_DRAWS} draws (max_n={max_n}, max_deg={max_deg})"
    )


# -- ideal files --------------------------------------------------------------
# Format: first data line "<n> <count>" (the number of variables and of
# generators, e.g. "3 6"), then one monomial per line in either accepted
# syntax; lines starting with "#" are comments.


def parse_ideal(text: str) -> MonomialIdeal:
    """The ideal of a file: a header "<n> <count>", then one generator per
    line, skipping blank lines and "#" comments.  An error in a generator
    names its line, "line k: ...", counting every line of the file from 1."""
    lines = [
        (k, ln.strip())
        for k, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty ideal file")
    header = lines[0][1]
    try:
        n, count = map(int, header.split())
    except ValueError:
        raise ValueError(f'expected header "<n> <count>", got {header!r}') from None
    if n < 1 or count < 1:
        raise ValueError(f"invalid header values n={n}, count={count}")
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"header announces {count} generators, found {len(body)}")
    gens = []
    for k, ln in body:
        try:
            gens.append(Monomial.parse(ln, n))
        except ValueError as exc:
            raise ValueError(f"line {k}: {exc}") from None
    return MonomialIdeal(n, gens)


def read_ideal(path) -> MonomialIdeal:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal(fh.read())


def format_ideal(ideal: MonomialIdeal) -> str:
    lines = [f"{ideal.n} {len(ideal.gens)}"]
    lines.extend(str(m) for m in ideal.gens)
    return "\n".join(lines) + "\n"
