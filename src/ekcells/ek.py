"""The Eliahou-Kervaire type resolutions: the classical resolution of a stable
ideal and the modified resolution of the polarization bpol(I) of a Borel
fixed ideal.

Both have the same basis, the admissible pairs (F, m): a minimal generator m
together with a strictly increasing index tuple F below max(m).  They differ
in three rules, which a :class:`Kind` record holds:

* the variable attached to an index i: x_i, resp. x_{i,j(m,i)};
* the lift of m: m, resp. bpol(m);
* the shifted generator m_i: g(x_i m), resp. g(b_i(m)).

The differential sends e(F, m) to

    sum_r (-1)^r x e(F - i_r, m)
      - sum_{i_r in B(F, m)} (-1)^r (x lift(m) / lift(m_{i_r})) e(F - i_r, m_{i_r}),

with r the 1-based position of i_r in F, x the variable attached to i_r, and
B(F, m) the indices i of F whose removal leaves an admissible pair for m_i:
every other index of F stays below max(m_i) and keeps its variable under m_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Callable

from .complexes import FreeComplex
from .ideals import MonomialIdeal
from .monomials import BiMonomial, Monomial
from .polarization import bpol_monomial, context_for, g_shift

__all__ = [
    "Kind",
    "KINDS",
    "kind_of",
    "j_index",
    "AdmissiblePair",
    "admissible_pairs",
    "admissible_layers",
    "b_set",
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


@dataclass(frozen=True, eq=False)
class Kind:
    """The rules that set one resolution of the family apart."""

    name: str             # "ek" | "modified"
    symbol: str           # basis symbol in labels: "e" | "~e"
    ideal_class: str      # the ideals it resolves: "stable" | "Borel fixed"
    admits: Callable      # ideal -> whether the ideal is of that class
    index: Callable       # (m, i) -> how a label names index i: i | (i, j(m, i))
    variable: Callable    # (m, i) -> x_i | x_{i,j(m,i)}
    lift: Callable        # m -> m | bpol(m)
    shift: Callable       # (ideal, m, i) -> g(x_i m) | g(b_i(m))


EK = Kind(
    "ek", "e", "stable", MonomialIdeal.is_stable,
    index=lambda m, i: i,
    variable=lambda m, i: Monomial.variable(m.n, i),
    lift=lambda m: m,
    shift=lambda ideal, m, i: ideal.g(m.times_var(i)),
)
MODIFIED = Kind(
    "modified", "~e", "Borel fixed", MonomialIdeal.is_borel_fixed,
    index=lambda m, i: (i, j_index(m, i)),
    variable=lambda m, i: BiMonomial.variable(i, j_index(m, i)),
    lift=bpol_monomial,
    shift=g_shift,
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


@dataclass(frozen=True)
class AdmissiblePair:
    F: tuple
    m: Monomial
    kind: Kind = EK  # a Kind or its name

    def __post_init__(self):
        F = tuple(int(i) for i in self.F)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "kind", kind_of(self.kind))
        if any(i < 1 for i in F):
            raise ValueError(f"indices must be >= 1: {F}")
        if any(a >= b for a, b in zip(F, F[1:])):
            raise ValueError(f"index set must be strictly increasing: {F}")
        if F and F[-1] >= self.m.max_var():
            raise ValueError(f"max {F} must stay below max({self.m}) = {self.m.max_var()}")

    @property
    def indices(self) -> tuple:
        """The index set as the kind names it: bare indices i (classical) or
        squares (i, j) (modified)."""
        return tuple(self.kind.index(self.m, i) for i in self.F)

    def variable(self, i: int):
        return self.kind.variable(self.m, i)

    def lift(self):
        return self.kind.lift(self.m)

    def drop(self, i: int) -> tuple:
        if i not in self.F:
            raise ValueError(f"{i} not in {self.F}")
        return tuple(k for k in self.F if k != i)

    def multidegree(self):
        return prod((self.variable(i) for i in self.F), start=self.lift())

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
        AdmissiblePair(F, m, kind)
        for m in ideal.gens
        for F in combinations(range(1, m.max_var()), q)
    ]


def admissible_layers(ideal: MonomialIdeal, kind="ek") -> list:
    """The admissible pairs of every homological degree that has any."""
    return [admissible_pairs(ideal, q, kind) for q in range(ideal.max_max())]


def b_set(ideal: MonomialIdeal, F, m: Monomial, kind="ek") -> tuple:
    """The indices i in F whose removal pairs admissibly with m_i: every other
    index stays below max(m_i) and keeps its variable under m_i."""
    kind = kind_of(kind)
    pair = AdmissiblePair(tuple(F), m, kind)
    out = []
    for i in pair.F:
        m2 = kind.shift(ideal, m, i)
        bound = m2.max_var()
        if all(
            k < bound and kind.index(m2, k) == kind.index(m, k)
            for k in pair.F
            if k != i
        ):
            out.append(i)
    return tuple(out)


def ek_complex(ideal: MonomialIdeal) -> FreeComplex:
    """The classical Eliahou-Kervaire resolution of a stable ideal."""
    return _resolution(EK, ideal, ("S", ideal.n))


def modified_complex(ideal: MonomialIdeal, d=None) -> FreeComplex:
    """The modified resolution of bpol(I) for a Borel fixed ideal I, in the
    ring with columns j <= d (default: the largest generator degree)."""
    return _resolution(MODIFIED, ideal, ("S~", ideal.n, context_for(ideal, d).d))


def _resolution(kind: Kind, ideal: MonomialIdeal, ring: tuple) -> FreeComplex:
    layers = admissible_layers(ideal, kind)
    # rows are looked up by (F, exponents of m): no pair is built or hashed
    index = [{(pair.F, pair.m.exps): k for k, pair in enumerate(layer)} for layer in layers]
    diffs = []
    for q in range(1, len(layers)):
        mat = {}
        for col, pair in enumerate(layers[q]):
            lift = pair.lift()
            bset = set(b_set(ideal, pair.F, pair.m, kind))
            for r, i in enumerate(pair.F, start=1):
                sign = -1 if r % 2 else 1
                rest = pair.drop(i)
                var = pair.variable(i)
                mat[(_row(index[q - 1], pair, rest, pair.m), col)] = (sign, var)
                if i in bset:
                    m2 = kind.shift(ideal, pair.m, i)
                    try:
                        coeff = (var * lift).div(kind.lift(m2))
                    except ValueError as exc:
                        raise RuntimeError(
                            f"differential coefficient not divisible at {pair!r}, "
                            f"i = {i}: {exc}"
                        ) from exc
                    mat[(_row(index[q - 1], pair, rest, m2), col)] = (-sign, coeff)
        diffs.append(mat)

    return FreeComplex(
        kind=kind.name,
        ring=ring,
        basis=layers,
        mdegs=[[p.multidegree() for p in layer] for layer in layers],
        diffs=diffs,
    )


def _row(index: dict, pair: AdmissiblePair, rest: tuple, m: Monomial) -> int:
    """The row of the pair (rest, m) in the layer below ``pair``."""
    row = index.get((rest, m.exps))
    if row is None:
        raise RuntimeError(f"differential of {pair!r} has a term at ({rest}, {m}), "
                           "which is not an admissible pair")
    return row
