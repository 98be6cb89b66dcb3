"""Chain-complex linear algebra over the integers.

Provides the frame (coefficient-free) complex of a free complex, Smith normal
form homology, simplicial homology of order complexes, the multigraded strand
exactness oracle certifying that a complex is a resolution, and cell-count
utilities on graded posets.

All arithmetic is exact, on sparse integer columns.  Homology goes through
``invariant_factors``, the Smith invariants of a sparse integer matrix, from
+-1 pivots first and the dense ``smith_diagonal`` on the unit-free rest, and
reads Betti numbers and torsion off them.  The strand oracle first ranks each
strand of the frame over F_2 (row bitmasks) and F_3 (bitsliced mask pairs);
the Smith invariants name the failing field of a strand that fails there.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, compress

from .complexes import FreeComplex
from .monomials import BiMonomial, Monomial
from .posets import FinitePoset, SimplicialComplexData

__all__ = [
    "IntegerChainComplex",
    "frame_complex",
    "homology_ranks",
    "simplicial_chain_complex",
    "reduced_homology_trivial",
    "strand_exactness",
    "StrandReport",
    "face_counts",
    "euler_characteristic",
    "ridge_incidences",
    "invariant_factors",
    "sparse_columns",
    "rank_int",
    "smith_diagonal",
]


@dataclass
class IntegerChainComplex:
    """A bounded chain complex of free Z-modules.

    ``ranks[k]`` is the rank in degree ``bottom + k``; ``cols[k]`` is the
    boundary from degree ``bottom + k + 1`` to ``bottom + k`` as ranks[k+1]
    sparse columns, each a ``{row: nonzero entry}`` dict with rows in
    0..ranks[k]-1.
    """

    bottom: int
    ranks: list
    cols: list

    def __post_init__(self):
        if len(self.cols) != max(len(self.ranks) - 1, 0):
            raise ValueError("matrix count does not match rank count")
        for k, layer in enumerate(self.cols):
            if len(layer) != self.ranks[k + 1]:
                raise ValueError(f"matrix {k} has {len(layer)} columns, not {self.ranks[k + 1]}")
            if any(col and (min(col) < 0 or max(col) >= self.ranks[k]) for col in layer):
                raise ValueError(f"matrix {k} has a row outside 0..{self.ranks[k] - 1}")

    @property
    def mats(self) -> list:
        """A read-only view of ``cols`` as dense row-major matrices, built on
        each access.  It exists only for the benchmark tracer's homology entry
        counter."""
        mats = [[[0] * len(layer) for _ in range(r)] for r, layer in zip(self.ranks, self.cols)]
        for mat, layer in zip(mats, self.cols):
            for j, col in enumerate(layer):
                for i, x in col.items():
                    mat[i][j] = x
        return mats


def frame_complex(cplx: FreeComplex) -> IntegerChainComplex:
    """The augmented frame complex: every coefficient monomial replaced by 1,
    keeping the signs, above a rank-1 degree (-1), the empty cell, that
    receives 1 from every basis element of degree 0."""
    ranks = cplx.ranks
    cols = [[{0: 1} for _ in range(ranks[0])]] + [[{} for _ in range(r)] for r in ranks[1:]]
    for q in range(1, cplx.top + 1):
        for (i, j), (sign, _) in cplx.boundary(q).items():
            cols[q][j][i] = sign
    return IntegerChainComplex(-1, [1, *ranks], cols)


def _nonzero_composite(cols):
    """The first k at which the sparse boundaries ``cols[k]`` and
    ``cols[k + 1]`` do not compose to zero over Z, or None if none."""
    for k in range(len(cols) - 1):
        lower = cols[k]
        for col in cols[k + 1]:
            image = defaultdict(int)
            for t, x in col.items():
                for i, y in lower[t].items():
                    image[i] += x * y
            if any(image.values()):
                return k
    return None


# -- exact integer linear algebra ---------------------------------------------


def sparse_columns(mat, ncols=None) -> list:
    """The columns of a dense row-major matrix as ``{row: entry}`` dicts: the
    dense-input adapter of ``rank_int`` and ``rank_mod_p``."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(mat):
        for j in compress(range(ncols), row):  # the nonzero positions, found in C
            cols[j][i] = row[j]
    return cols


def invariant_factors(cols) -> list:
    """The nonzero Smith invariants of a matrix given by sparse columns (left
    unmodified), whose row keys need only be sortable.

    While a +-1 entry remains, clear its row with column operations, drop its
    row and column, and count one invariant 1.  Both steps are unimodular over
    Z; the unit-free block left over goes to the dense ``smith_diagonal``.
    """
    cols = {j: dict(col) for j, col in enumerate(cols) if col}
    in_row = defaultdict(set)  # row -> the live columns with an entry there
    for j, col in cols.items():
        for i in col:
            in_row[i].add(j)
    ones, before = 0, None
    while cols and ones != before:  # until a sweep finds no unit entry
        before = ones
        for j in list(cols):
            col = cols.get(j)
            piv = next((i for i, x in col.items() if x == 1 or x == -1), None) if col else None
            if piv is None:
                continue
            u = col.pop(piv)
            for k in in_row.pop(piv) - {j}:
                other = cols[k]
                c = other.pop(piv) * u  # other[piv] / u, as u is +-1
                for i, x in col.items():
                    y = other.get(i, 0) - c * x
                    if y:
                        other[i] = y
                        in_row[i].add(k)
                    else:
                        del other[i]
                        in_row[i].discard(k)
                if not other:
                    del cols[k]
            for i in col:
                in_row[i].discard(j)
            del cols[j]
            ones += 1
    if not cols:
        return [1] * ones
    rows = sorted({i for col in cols.values() for i in col})
    residual = [[cols[j].get(i, 0) for j in sorted(cols)] for i in rows]
    return [1] * ones + smith_diagonal(residual)


def rank_int(mat) -> int:
    """Rank over Q of an integer matrix."""
    return len(invariant_factors(sparse_columns(mat)))


def rank_mod_p(mat, p: int) -> int:
    """Rank over F_p of an integer matrix."""
    return sum(1 for d in invariant_factors(sparse_columns(mat)) if d % p)


def smith_diagonal(mat) -> list:
    """The nonzero diagonal of the Smith normal form (invariant factors)."""
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    out = []
    top = 0
    while top < m and top < n:
        # the first nonzero pivot of least absolute value, in row-major order
        nonzero = [(abs(a[i][j]), i, j) for i in range(top, m) for j in range(top, n) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            done = True
            for i in range(top + 1, m):
                if a[i][top]:
                    qt = a[i][top] // a[top][top]
                    for j in range(top, n):
                        a[i][j] -= qt * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        done = False
            for j in range(top + 1, n):
                if a[top][j]:
                    qt = a[top][j] // a[top][top]
                    for row in a:
                        row[j] -= qt * row[top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        done = False
            if done:
                break
        out.append(abs(a[top][top]))
        top += 1
    # enforce divisibility d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i + 1] % out[i]:
                g = math.gcd(out[i], out[i + 1])
                out[i], out[i + 1] = g, out[i] * out[i + 1] // g
                changed = True
    return out


def homology_ranks(cplx: IntegerChainComplex) -> list:
    """Integer homology per degree: (free rank, torsion invariants > 1).

    Entry k describes degree ``bottom + k``.  Raises when the input is not a
    complex.
    """
    k = _nonzero_composite(cplx.cols)
    if k is not None:
        raise ValueError(
            f"boundaries out of degrees {cplx.bottom + k + 2} and "
            f"{cplx.bottom + k + 1} do not compose to zero"
        )
    # diag[k + 1]: the invariants of the map into degree k, diag[k]: out of it
    diag = [[], *(invariant_factors(layer) for layer in cplx.cols), []]
    return [
        (rk - len(diag[k + 1]) - len(diag[k]), tuple(d for d in diag[k + 1] if d > 1))
        for k, rk in enumerate(cplx.ranks)
    ]


def simplicial_chain_complex(data: SimplicialComplexData) -> IntegerChainComplex:
    """The augmented simplicial chain complex over Z, whose homology is the
    reduced homology (degree -1 holds the empty face)."""
    by_dim = data.faces()
    ranks = [len(layer) for layer in by_dim]
    cols = [[{0: 1} for _ in range(ranks[0])]]
    for d in range(1, len(by_dim)):
        below = {face: k for k, face in enumerate(by_dim[d - 1])}
        cols.append([
            {below[face[:pos] + face[pos + 1 :]]: -1 if pos % 2 else 1 for pos in range(d + 1)}
            for face in by_dim[d]
        ])
    return IntegerChainComplex(-1, [1, *ranks], cols)


def reduced_homology_trivial(data: SimplicialComplexData) -> bool:
    return all(
        betti == 0 and not torsion
        for betti, torsion in homology_ranks(simplicial_chain_complex(data))
    )


# -- multigraded strand exactness ------------------------------------------------


@dataclass
class StrandReport:
    ok: bool
    strands_checked: int
    primes: tuple
    failures: list = field(default_factory=list)

    def first_failure(self):
        return self.failures[0] if self.failures else None


class _Packing:
    """Exponent vectors packed into ints (Monagan-Pearce).

    One field of ``width`` bits per variable, the first variable most
    significant: the positions of ``Monomial.exps``, or the sorted union of
    the ``BiMonomial`` variables seen.  Each field is one bit wider than the
    largest exponent, and that top bit, the guard, is clear in every packed
    degree; ``guard`` is the mask of all guard bits.
    """

    def __init__(self, monos):
        monos = list(monos)
        if all(isinstance(m, Monomial) for m in monos):
            self.variables, self.size = None, (monos[0].n if monos else 1)
        else:
            self.variables = sorted({v for m in monos for v in m.variables()})
            self.size = len(self.variables)
        top = max((e for m in monos for e in self._exps(m)), default=0)
        self.width = top.bit_length() + 1
        self.guard = sum(1 << (self.width * k + self.width - 1) for k in range(self.size))

    def _exps(self, mono):
        if self.variables is None:
            return mono.exps
        return tuple(mono.exponent(i, j) for i, j in self.variables)

    def pack(self, mono) -> int:
        x = 0
        for e in self._exps(mono):
            x = (x << self.width) | e
        return x

    def fields(self, x) -> tuple:
        w, mask = self.width, (1 << (self.width - 1)) - 1
        return tuple((x >> (w * k)) & mask for k in range(self.size - 1, -1, -1))

    def unpack(self, x):
        if self.variables is None:
            return Monomial(self.fields(x))
        return BiMonomial(dict(zip(self.variables, self.fields(x))))

    def sort_key(self, x):
        """The order of the unpacked degrees: ``Monomial.exps`` as tuples, which
        is the order of their packed ints, or ``BiMonomial.items()``."""
        if self.variables is None:
            return x
        return tuple((v, e) for v, e in zip(self.variables, self.fields(x)) if e)


def _lcm_lattice(gens, guard: int, width: int) -> set:
    """All joins of nonempty subsets of the packed generator degrees.

    The join is the field-wise maximum, taken by SWAR: the guard of a field
    survives ``(a | guard) - g`` exactly where a's exponent is at least g's,
    and subtracting that guard shifted to the field's low bit widens it into a
    mask of the field.
    """
    lattice = set(gens)
    frontier = list(lattice)
    shift = width - 1
    while frontier:
        nxt = []
        for a in frontier:
            ag = a | guard
            for g in gens:
                ge = (ag - g) & guard
                keep = ge - (ge >> shift)
                j = (a & keep) | (g & ~keep)
                if j not in lattice:
                    lattice.add(j)
                    nxt.append(j)
        frontier = nxt
    return lattice


def strand_exactness(cplx: FreeComplex, gens, primes=()) -> StrandReport:
    """Check that the complex resolves the ideal generated by ``gens``.

    For every multidegree b in the lcm lattice of the generators, restricts
    each free module to the basis elements whose degree divides b, restricts
    the differentials (entries become +-1), augments by the one-dimensional
    degree-b component of the ideal, and verifies exactness of the resulting
    complex over Q (and over F_p for each requested prime).

    Generator and basis degrees are packed once into guard-bit integers
    (``_Packing``), so the lattice closure is a field-wise maximum.  A strand
    passes on its ranks over F_2 and F_3 (``_StrandFrame``); only a strand
    that fails there, or every strand when those ranks certify nothing, is
    checked on Smith invariants, which name the first failing field.  The
    failures come in the order of their degrees; a lattice element becomes a
    monomial again only to name one.
    """
    gens, primes = list(gens), tuple(primes)
    packing = _Packing(gens + [md for layer in cplx.mdegs for md in layer])
    frame = _StrandFrame(cplx, packing)
    fields = frame.certifying_fields(primes)
    lattice = _lcm_lattice({packing.pack(g) for g in gens}, packing.guard, packing.width)
    failing = []  # (b, field, position, defect), sorted by degree below
    for b in lattice:
        sub = frame.strand(packing.fields(b))
        dims = [(sub & level).bit_count() for level in frame.levels]
        if fields and all(
            _exactness_defect(dims, frame.field_ranks(sub, p)) is None for p in fields
        ):
            continue
        invariants = frame.strand_invariants(sub)
        for p in (0,) + primes:  # 0 for Q: every invariant is a unit there
            ranks = [len(inv) if p == 0 else sum(1 for d in inv if d % p) for inv in invariants]
            defect = _exactness_defect(dims, ranks)
            if defect is not None:
                failing.append((b, f"F{p}" if p else "Q") + defect)
                break
    failing.sort(key=lambda failure: packing.sort_key(failure[0]))
    return StrandReport(
        ok=not failing, strands_checked=len(lattice), primes=primes,
        failures=[
            {"degree": str(packing.unpack(b)), "field": field, "position": position,
             "defect": defect}
            for b, field, position, defect in failing
        ],
    )


class _StrandFrame:
    """The augmented frame complex of a free complex, on bitmasks.

    Basis element k of degree q is bit ``offsets[q + 1] + k``, and bit 0 is
    degree -1, the ideal component; ``levels[q + 1]`` masks degree q.  A
    strand is a mask too: the AND over the variables v of ``below[v][e]``,
    the bits whose exponent in v is at most b's exponent e (bit 0 always).
    ``frame`` is ``frame_complex(cplx)``, and ``cols[p]`` holds each of its
    columns as one row bitmask for p = 2 and as its (entries 1, entries -1)
    masks for p = 3.
    """

    def __init__(self, cplx: FreeComplex, packing: _Packing):
        self.frame = frame_complex(cplx)
        self.sizes = self.frame.ranks
        self.offsets = [0, *accumulate(self.sizes[:-1])]
        self.levels = [((1 << n) - 1) << off for off, n in zip(self.offsets, self.sizes)]
        nbits = sum(self.sizes)
        self.full = (1 << nbits) - 1
        degrees = [[packing.pack(md) for md in layer] for layer in cplx.mdegs]
        exps = list(zip(*(packing.fields(md) for layer in degrees for md in layer)))
        self.tops = [max(col) for col in exps]
        self.below = []
        for col, top in zip(exps, self.tops):
            masks = [1] * top  # none for e >= top: every bit is below it
            for bit, e in enumerate(col, start=1):
                if e < top:
                    masks[e] |= 1 << bit
            for e in range(1, top):
                masks[e] |= masks[e - 1]
            self.below.append(masks)
        self.cols = {2: [0] * nbits, 3: [(0, 0)] * nbits}
        for q, layer in enumerate(self.frame.cols):
            for bit, col in enumerate(layer, start=self.offsets[q + 1]):
                rows = [(self.offsets[q] + i, x) for i, x in col.items()]
                self.cols[2][bit] = sum(1 << r for r, x in rows if x % 2)
                self.cols[3][bit] = (sum(1 << r for r, x in rows if x % 3 == 1),
                                     sum(1 << r for r, x in rows if x % 3 == 2))
        # whether each strand is a subcomplex (every entry's row degree divides
        # its column degree) and the frame squares to zero over Z
        guard = packing.guard
        self.z_complex = all(
            (cg - degrees[q - 1][i]) & guard == guard
            for q in range(1, len(self.frame.cols))
            for cg, col in zip((d | guard for d in degrees[q]), self.frame.cols[q])
            for i in col
        ) and _nonzero_composite(self.frame.cols) is None

    def certifying_fields(self, primes) -> tuple:
        """The fields F_p whose ranks certify a strand over Q and over every
        requested prime, or () when field ranks cannot.

        If C is a complex of free Z-modules and C (x) F_p is exact, then by
        universal coefficients H(C) (x) F_p = 0, so H(C) is finite and C (x) Q
        is exact as well; F_2 alone thus certifies Q.
        """
        if not self.z_complex or not set(primes) <= {2, 3}:
            return ()
        return tuple(sorted(set(primes))) or (2,)

    def strand(self, exps) -> int:
        """The mask of the basis elements whose degree divides the degree with
        exponents ``exps``."""
        sub = self.full
        for below, top, e in zip(self.below, self.tops, exps):
            if e < top:
                sub &= below[e]
        return sub

    def field_ranks(self, sub: int, p: int) -> list:
        """The ranks over F_p of the strand's maps, the augmentation first."""
        return _top_down_ranks(sub, self.levels, self.cols[p], _INSERT[p])

    def strand_invariants(self, sub: int) -> list:
        """The Smith invariants of the strand's maps, the augmentation first."""
        return [
            invariant_factors([
                {i: x for i, x in col.items() if sub >> (self.offsets[q] + i) & 1}
                for bit, col in enumerate(layer, start=self.offsets[q + 1]) if sub >> bit & 1
            ])
            for q, layer in enumerate(self.frame.cols)
        ]


def _top_down_ranks(sub: int, levels, cols, insert) -> list:
    """The ranks over a field of the maps of a complex, restricted to the
    basis bits in ``sub``.

    ``levels[t]`` masks degree t from the bottom, ``cols[bit]`` is a basis
    element's boundary as ``insert`` reads it, and the maps compose to zero.
    From the top down, the map out of a degree is ranked on the elements that
    are not pivots of the echelon basis of the image coming in: they span the
    quotient by that image, and the map vanishes on the image.  Entry t is
    the rank of the map from degree t + 1 into degree t.
    """
    ranks = []
    pivots = 0
    for level in levels[:0:-1]:
        todo = sub & level & ~pivots
        basis = {}
        pivots = 0
        while todo:
            bit = todo.bit_length() - 1
            todo ^= 1 << bit
            pivots |= insert(basis, cols[bit])
        ranks.append(len(basis))
    return ranks[::-1]


def _f2_insert(basis: dict, x: int):
    """Reduce the F_2 vector ``x``, a bitmask, by the echelon basis
    ``{leading bit: vector}`` and add it there unless it reduced to zero.
    Returns the new pivot as a one-bit mask, 0 if none."""
    while x:
        h = x.bit_length() - 1
        v = basis.get(h)
        if v is None:
            basis[h] = x
            return 1 << h
        x ^= v
    return 0


def _f3_insert(basis: dict, x: tuple):
    """``_f2_insert`` over F_3 on bitsliced vectors (Boothby-Bradshaw): ``x``
    is the pair (mask of entries 1, mask of entries -1).  (p, m) + (q, n) is
    ((m | n) ^ t, (p | q) ^ t) with t = (p | n) ^ (m | q), negation swaps the
    masks, and basis vectors are scaled to lead with 1."""
    p, m = x
    while p | m:
        h = (p | m).bit_length() - 1
        v = basis.get(h)
        if v is None:
            basis[h] = (m, p) if m >> h & 1 else (p, m)
            return 1 << h
        q, n = (v[1], v[0]) if p >> h & 1 else v  # x - v if x leads with 1, else x + v
        t = (p | n) ^ (m | q)
        p, m = (m | n) ^ t, (p | q) ^ t
    return 0


_INSERT = {2: _f2_insert, 3: _f3_insert}


def _exactness_defect(dims, ranks_q):
    # dims[t] is the dimension at homological degree t - 1 (dims[0] = k);
    # ranks_q[t] is the rank of the map from dims[t + 1] into dims[t].
    for t in range(len(dims)):
        into = ranks_q[t] if t < len(ranks_q) else 0
        outof = ranks_q[t - 1] if t >= 1 else 0
        h = dims[t] - into - outof
        if h:
            return (t - 1, h)
    return None


# -- cell counting on graded posets ---------------------------------------------


def _cell_ranks(poset: FinitePoset):
    rankmap = poset.ranks()
    if rankmap is None:
        raise ValueError("poset is not graded")
    mins = poset.minimal_elements()
    if len(mins) != 1:
        raise ValueError("poset has no unique least element")
    return rankmap, mins[0]


def face_counts(poset: FinitePoset) -> tuple:
    """Cell counts per dimension, the least element not counted."""
    rankmap, bottom = _cell_ranks(poset)
    top = max(rankmap.values())
    counts = [0] * top
    for e in poset.elements:
        if e is not bottom:
            counts[rankmap[e] - 1] += 1
    return tuple(counts)


def euler_characteristic(poset: FinitePoset) -> int:
    return sum((-1) ** k * c for k, c in enumerate(face_counts(poset)))


def ridge_incidences(poset: FinitePoset) -> list:
    """(element, number of covering cells) for every corank-1 element."""
    rankmap, _ = _cell_ranks(poset)
    top = max(rankmap.values())
    return [
        (e, len(poset.up_covers(e))) for e in poset.elements if rankmap[e] == top - 1
    ]
