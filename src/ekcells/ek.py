"""The Eliahou-Kervaire type resolutions: the classical resolution of a stable
ideal and the modified resolution of the polarization bpol(I) of a Borel
fixed ideal.

Both have the same basis, the admissible pairs (F, m): a minimal generator m
together with a strictly increasing index tuple F below max(m).  They differ
in four rules, which a :class:`Kind` record holds:

* the ring and the generators' lifts: k[x_1..x_n] and m, resp.
  k[x_s | s the squares of bpol(I)] and bpol(m);
* the variable attached to an index i: x_i, resp. x_{i,j(m,i)};
* the lift of one monomial m: m, resp. bpol(m);
* the shifted generator m_i: g(x_i m), resp. g(b_i(m)).

The differential sends e(F, m) to

    sum_r (-1)^r x e(F - i_r, m)
      - sum_{i_r in B(F, m)} (-1)^r (x lift(m) / lift(m_{i_r})) e(F - i_r, m_{i_r}),

with r the 1-based position of i_r in F, x the variable attached to i_r, and
B(F, m) the indices i of F whose removal leaves an admissible pair for m_i:
every other index of F stays below max(m_i) and keeps its variable under m_i.
m_i, the indices it keeps, and the coefficient depend on (m, i) alone, so a
build reads them off one table per generator (``_shift_entry``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Callable

from .complexes import FreeComplex
from .ideals import MonomialIdeal
from .monomials import Monomial, from_squares, square_str
from .polarization import bpol_lifts, bpol_monomial, column_bound, g_shift

__all__ = [
    "Kind",
    "KINDS",
    "kind_of",
    "j_index",
    "AdmissiblePair",
    "admissible_pairs",
    "admissible_layers",
    "ek_complex",
    "modified_complex",
]


def j_index(m: Monomial, i: int) -> int:
    """The column paired with row i for the generator m: 1 + sum of the
    exponents of m in the variables x_1..x_i."""
    if m.is_unit():
        raise ValueError("no column index for the unit monomial")
    if not 1 <= i < m.max_var():
        raise ValueError(f"need 1 <= i < max({m}) = {m.max_var()}, got {i}")
    return 1 + sum(m.exps[:i])


def _column_keeps(m: Monomial, m2: Monomial) -> int:
    """The mask of the k < max(m2) with j(m2, k) = j(m, k) (bit k), read off
    the prefix sums of both exponent tuples in one pass."""
    top = m2.max_var()
    if top > m.max_var():
        j_index(m, m.max_var())  # raises, as j(m, k) does for every k >= max(m)
    keep = 0
    for k, a, b in zip(range(1, top), accumulate(m.exps), accumulate(m2.exps)):
        if a == b:
            keep |= 1 << k
    return keep


@dataclass(frozen=True, eq=False)
class Kind:
    """The rules that set one resolution of the family apart."""

    name: str             # "ek" | "modified"
    symbol: str           # basis symbol in labels: "e" | "~e"
    ideal_class: str      # the ideals it resolves: "stable" | "Borel fixed"
    admits: Callable      # ideal -> whether the ideal is of that class
    index: Callable       # (m, i) -> how a label names index i: i | (i, j(m, i))
    lifts: Callable       # ideal -> (squares of the ring, {generator: lift}):
                          #   (None, {m: m}) | bpol_lifts(ideal)
    variable: Callable    # (m, i, ring) -> x_i | x_{i,j(m,i)}
    lift: Callable        # (m, ring) -> m | bpol(m)
    shift: Callable       # (ideal, m, i) -> g(x_i m) | g(b_i(m))
    keeps: Callable       # (m, m_i) -> the mask of the k < max(m_i) (bit k) whose
                          #   variable m_i keeps: all of them | j(m_i, k) = j(m, k)


EK = Kind(
    "ek", "e", "stable", MonomialIdeal.is_stable,
    index=lambda m, i: i,
    lifts=lambda ideal: (None, {m: m for m in ideal.gens}),
    variable=lambda m, i, ring: Monomial.variable(m.n, i),
    lift=lambda m, ring: m,
    shift=lambda ideal, m, i: ideal.g(m.times_var(i)),
    keeps=lambda m, m2: (1 << m2.max_var()) - 2,
)
MODIFIED = Kind(
    "modified", "~e", "Borel fixed", MonomialIdeal.is_borel_fixed,
    index=lambda m, i: (i, j_index(m, i)),
    lifts=bpol_lifts,
    variable=lambda m, i, ring: from_squares(ring, ((i, j_index(m, i)),)),
    lift=bpol_monomial,
    shift=g_shift,
    keeps=_column_keeps,
)
KINDS = {kind.name: kind for kind in (EK, MODIFIED)}


def kind_of(kind) -> Kind:
    """The record of a kind given by name ("ek" or "modified") or as itself."""
    if isinstance(kind, Kind):
        return kind
    try:
        return KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None


def _index_tuple(F, m: Monomial) -> tuple:
    """F as a tuple of ints, checked to index an admissible pair with m."""
    F = tuple(int(i) for i in F)
    if any(i < 1 for i in F):
        raise ValueError(f"indices must be >= 1: {F}")
    if any(a >= b for a, b in zip(F, F[1:])):
        raise ValueError(f"index set must be strictly increasing: {F}")
    if F and F[-1] >= m.max_var():
        raise ValueError(f"max {F} must stay below max({m}) = {m.max_var()}")
    return F


@dataclass(frozen=True)
class AdmissiblePair:
    F: tuple
    m: Monomial
    kind: Kind = EK  # a Kind or its name

    def __post_init__(self):
        object.__setattr__(self, "kind", kind_of(self.kind))
        object.__setattr__(self, "F", _index_tuple(self.F, self.m))

    @classmethod
    def _of(cls, F: tuple, m: Monomial, kind: Kind) -> "AdmissiblePair":
        """The pair (F, m) of ``kind``, unchecked: only for a strictly
        increasing tuple of ints in 1..max(m) - 1."""
        pair = object.__new__(cls)
        pair.__dict__.update(F=F, m=m, kind=kind)
        return pair

    @property
    def indices(self) -> tuple:
        """The index set as the kind names it: bare indices i (classical) or
        squares (i, j) (modified)."""
        return tuple(self.kind.index(self.m, i) for i in self.F)

    def __repr__(self):
        inner = ",".join(str(x).replace(" ", "") for x in self.indices)
        return f"{self.kind.symbol}({{{inner}}};{self.m})"


def admissible_pairs(ideal: MonomialIdeal, q: int, kind="ek") -> list:
    """All admissible pairs (F, m) with #F = q, in canonical order: m by
    descending lex, then F lexicographically."""
    kind = kind_of(kind)
    if not kind.admits(ideal):
        raise ValueError(f"ideal is not {kind.ideal_class}")
    if q < 0:
        raise ValueError("homological degree must be >= 0")
    return [
        AdmissiblePair._of(F, m, kind)
        for m in ideal.gens
        for F in combinations(range(1, m.max_var()), q)
    ]


def admissible_layers(ideal: MonomialIdeal, kind="ek") -> list:
    """The admissible pairs of every homological degree that has any."""
    return [admissible_pairs(ideal, q, kind) for q in range(ideal.max_max())]


def _attached(kind: Kind, ideal: MonomialIdeal, squares) -> dict:
    """Each generator's attached variables, by index: entry i of the list of m
    is x_i, resp. x_{i,j(m,i)}, for 1 <= i < max(m)."""
    return {m: [None] + [kind.variable(m, i, squares) for i in range(1, m.max_var())]
            for m in ideal.gens}


def _shift_entry(kind: Kind, ideal: MonomialIdeal, m: Monomial, i: int) -> list:
    """The entry of (m, i) in a shift table: [m_i, the mask of the indices k
    that stay below max(m_i) and keep their variable under m_i (bit k), and a
    slot for the coefficient x lift(m) / lift(m_i), filled on first use]."""
    m2 = kind.shift(ideal, m, i)
    return [m2, kind.keeps(m, m2), None]


def _b_indices(F: tuple, row) -> tuple:
    """B(F, m) read off the shift table ``row`` of m, ``row[i]`` the entry
    of (m, i): the i in F whose m_i keeps every other index of F."""
    mask = sum(1 << i for i in F)
    return tuple(i for i in F if not mask & ~(row[i][1] | 1 << i))


def ek_complex(ideal: MonomialIdeal) -> FreeComplex:
    """The classical Eliahou-Kervaire resolution of a stable ideal."""
    return _resolution(EK, ideal, ("S", ideal.n))


def modified_complex(ideal: MonomialIdeal, d=None) -> FreeComplex:
    """The modified resolution of bpol(I) for a Borel fixed ideal I, in the
    ring of the squares bpol(I) uses; d (default: the largest generator
    degree) bounds the columns of the ring theta' maps into."""
    return _resolution(MODIFIED, ideal, ("S~", ideal.n, column_bound(ideal, d)))


def _resolution(kind: Kind, ideal: MonomialIdeal, ring: tuple) -> FreeComplex:
    layers = admissible_layers(ideal, kind)
    squares, lifts = kind.lifts(ideal)
    # each generator's variables and shift table, by index
    variables = _attached(kind, ideal, squares)
    table = {m: [None] + [_shift_entry(kind, ideal, m, i) for i in range(1, m.max_var())]
             for m in ideal.gens}
    # rows are looked up by (F, exponents of m): no pair is built or hashed
    index = [{(pair.F, pair.m.exps): k for k, pair in enumerate(layer)} for layer in layers]
    diffs, mdegs = [], [[lifts[pair.m] for pair in layers[0]]]
    for q in range(1, len(layers)):
        mat, below, degs = {}, index[q - 1], []
        for col, pair in enumerate(layers[q]):
            F, m = pair.F, pair.m
            xs, row = variables[m], table[m]
            bset = _b_indices(F, row)
            for r, i in enumerate(F, start=1):
                sign = -1 if r % 2 else 1
                rest = F[:r - 1] + F[r:]
                plain = _row(below, pair, rest, m)
                mat[(plain, col)] = (sign, xs[i])
                if i in bset:
                    entry = row[i]
                    if entry[2] is None:
                        entry[2] = _coefficient(xs[i] * lifts[m], lifts[entry[0]], squares, pair, i)
                    mat[(_row(below, pair, rest, entry[0]), col)] = (-sign, entry[2])
            # the cell's degree is that of the last plain term's row, (F minus
            # its last index, m), times the variable of that index
            degs.append(mdegs[q - 1][plain] * xs[F[-1]])
        diffs.append(mat)
        mdegs.append(degs)

    return FreeComplex(
        kind=kind.name,
        ring=ring if squares is None else ring + (squares,),
        basis=layers,
        mdegs=mdegs,
        diffs=diffs,
    )


def _coefficient(top: Monomial, low: Monomial, squares, pair: AdmissiblePair, i: int) -> Monomial:
    """top / low, the coefficient of the shifted term of ``pair`` at i."""
    try:
        return top.div(low)
    except ValueError:
        low, top = square_str(low, squares), square_str(top, squares)
        raise RuntimeError(
            f"differential coefficient not divisible at {pair!r}, "
            f"i = {i}: {low} does not divide {top}"
        ) from None


def _row(index: dict, pair: AdmissiblePair, rest: tuple, m: Monomial) -> int:
    """The row of the pair (rest, m) in the layer below ``pair``."""
    row = index.get((rest, m.exps))
    if row is None:
        raise RuntimeError(f"differential of {pair!r} has a term at ({rest}, {m}), "
                           "which is not an admissible pair")
    return row
