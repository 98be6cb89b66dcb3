"""Chain-complex linear algebra over the integers.

Provides the frame (coefficient-free) complex of a free complex, Smith normal
form homology, simplicial homology of order complexes, the multigraded strand
exactness oracle certifying that a complex is a resolution, and cell-count
utilities on graded posets.

All arithmetic is exact, on sparse integer columns.  Homology goes through
``invariant_factors``, the Smith invariants of a sparse integer matrix, from
+-1 pivots first and the dense ``smith_diagonal`` on the unit-free rest, and
reads Betti numbers and torsion off them.  The strand oracle first reads
exactness off the mapping-cone filtration of the complex: the cells grouped
by generator, each group a Koszul complex on the variables of the linear
quotient of its generator, which takes time linear in the differential and
ranks no strand.  Where that certificate does not apply, it closes the lcm
lattice one generator at a time, walks it once upwards and ranks, over F_2
(row bitmasks) and F_3 (bitsliced mask pairs), only the cells each strand
adds to an exact strand below it; the Smith invariants name the failing
field of a strand that fails there.  The walk's verdict covers every
multidegree where each cell degree is an lcm of the generators.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, compress
from operator import getitem, or_

from .complexes import FreeComplex
from .monomials import Monomial, square_str
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
    """Exponent vectors packed into ints (Monagan-Pearce), on exponent ranks.

    Each exponent is replaced by its rank among the distinct exponents its
    variable takes in ``monos``: a monotone relabelling, so lcms and
    divisibility among ``monos`` and their lcms are kept, and a field's width
    follows how many exponents a variable takes, not how large they are.
    ``counts[v]`` is that number, ``values[v]`` lists v's exponents in
    order, and ``ranks[v]`` maps each to its rank.  One field of ``width``
    bits per variable, the first variable most significant, so packed ints
    order as ``Monomial.exps`` do.  Each field is one bit wider than the
    largest rank, and that top bit, the guard, is clear in every packed
    degree; ``guard`` is the mask of all guard bits.
    """

    def __init__(self, monos):
        self.values = [tuple(sorted(set(col))) for col in zip(*(m.exps for m in monos))]
        self.ranks = [dict(zip(col, range(len(col)))) for col in self.values]
        self.counts = list(map(len, self.values))
        self.size = len(self.values)
        self.width = (max(self.counts, default=1) - 1).bit_length() + 1
        self.guard = sum(1 << (self.width * k + self.width - 1) for k in range(self.size))

    def ranked(self, mono: Monomial):
        """The ranks of the exponents of ``mono``, one per variable."""
        return tuple(map(getitem, self.ranks, mono.exps))

    def pack(self, mono: Monomial) -> int:
        x = 0
        for r in self.ranked(mono):
            x = (x << self.width) | r
        return x

    def unpack(self, x) -> Monomial:
        w, mask = self.width, (1 << (self.width - 1)) - 1
        ranks = tuple((x >> (w * k)) & mask for k in range(self.size - 1, -1, -1))
        return Monomial(tuple(map(getitem, self.values, ranks)))


def strand_exactness(cplx: FreeComplex, gens, primes=()) -> StrandReport:
    """Check that the complex resolves the ideal generated by ``gens``.

    For every multidegree b in the lcm lattice of the generators, restricts
    each free module to the basis elements whose degree divides b, restricts
    the differentials (entries become +-1), augments by the one-dimensional
    degree-b component of the ideal, and verifies exactness of the resulting
    complex over Q (and over F_p for each requested prime): the
    Bayer-Peeva-Sturmfels acyclicity criterion.  It is complete where every
    cell degree is the lcm of the generators that divide it: then the strand
    at any monomial is the strand at the lcm of the generators dividing it, a
    lattice element, and the report speaks for every multidegree.

    The mapping-cone certificate (``_mapping_cone``) is tried first: it reads
    exactness off the differential in linear time and ranks no strand.
    Where one of its conditions fails, the strands are walked
    (``_strand_walk``), and only the walk names failures.
    """
    gens, primes = list(gens), tuple(primes)
    report = _mapping_cone(cplx, gens, primes)
    return report if report is not None else _strand_walk(cplx, gens, primes)


def _strand_walk(cplx: FreeComplex, gens, primes) -> StrandReport:
    """``strand_exactness`` on the complex's own lcm lattice.

    Degrees are packed once, on the ranks of their exponents (``_Packing``).
    A strand passes on its ranks over F_2 and F_3 (``_StrandFrame``), taken
    relative to a strand below it: if a divides b, the strand A at a is a
    subcomplex of the strand B at b, as the frame is checked once to be a
    Z-complex whose row degrees divide their column degrees, and if A is
    exact over F_p, the long exact sequence of 0 -> A -> B -> B/A -> 0
    (Weibel, Thm 1.3.1) gives H(B) = H(B/A), so only B's cells outside A are
    ranked; A is the strand of b's parent, a proper divisor of b with the
    largest strand, if that is exact over F_p, else empty.  A strand that
    fails there, or every strand when field ranks certify nothing, is
    checked on Smith invariants, which name the first failing field; off a
    Z-complex a strand that passes them but whose maps do not compose fails
    with field "Z", defect None.  Failures come in the order of their degrees.
    """
    packing = _Packing(gens + [md for layer in cplx.mdegs for md in layer])
    frame = _StrandFrame(cplx, packing)
    fields = frame.certifying_fields(primes)
    lattice = frame.lattice(packing.pack(g) for g in gens)
    exact = frame.field_verdicts(lattice, fields)
    failures = []
    for b, (sub, _) in lattice.items():
        if fields and all(exact[b]):
            continue
        dims = [(sub & level).bit_count() for level in frame.levels]
        cols = frame.strand_cols(sub)
        invariants = [invariant_factors(layer) for layer in cols]
        for p in (0,) + primes:  # 0 for Q: every invariant is a unit there
            ranks = [len(inv) if p == 0 else sum(1 for d in inv if d % p) for inv in invariants]
            defect = _exactness_defect(dims, ranks)
            if defect is not None:
                failure = {"field": f"F{p}" if p else "Q", "position": defect[0],
                           "defect": defect[1]}
                break
        else:  # off a Z-complex a strand whose ranks pass need not be a complex
            k = None if frame.z_complex else _nonzero_composite(cols)
            failure = None if k is None else {"field": "Z", "position": k, "defect": None}
        if failure is not None:
            failures.append({"degree": square_str(packing.unpack(b), cplx.squares), **failure})
    return StrandReport(not failures, len(lattice), primes, failures)


def _mapping_cone(cplx: FreeComplex, gens: list, primes: tuple):
    """The report of ``strand_exactness(cplx, gens, primes)`` read off the
    mapping-cone filtration of ``cplx``, or None where the lemma's
    conditions fail.

    Lemma (Eliahou-Kervaire 1990; Herzog-Takayama, HHA 4, 2002).  Let F be a
    complex of free multigraded modules over S = k[x], k any field, with the
    frame's +-1 entries and coefficients (column degree) / (row degree).
    Give its degree-0 degrees u_1..u_m, in basis order, the groups 1..m, and
    each higher basis element the largest group among its rows.  Suppose:

    - (a) group(row) <= group(column) on every entry, by construction, so
      the elements of group <= j span a subcomplex F^(j);
    - (b) in group j a column of degree q has exactly q entries in group j,
      each coefficient one variable x, distinct within the column, to the
      element whose set is S - {x}, S being the column's variables; every
      subset of V_j, the union of the sets of group j, occurs once, and by
      induction from u_j the column degree is u_j * prod(S);
    - (c) (u_1..u_{j-1}) : u_j = (V_j), both inclusions tested: x * u_j is
      in (u_<j) for each x in V_j, and each u_i / gcd(u_i, u_j), i < j, has
      a variable of V_j;
    - (d) the frame composes to zero over Z, augmentation included.

    Then F resolves I = (u_1..u_m).  Let I_j = (u_1..u_j).  By (b),
    Q_j = F^(j)/F^(j-1) is the cube on V_j with degrees u_j * prod(S) and
    entries +-x.  Its signs square to zero by (d), so they multiply to -1
    on each square face, as the Koszul signs do; the two differ by a Z/2
    1-cocycle on the cube, which is simply connected, so by a coboundary: a
    change of sign of basis elements.  So Q_j is the Koszul complex on V_j
    shifted by u_j, exact in degrees >= 1 with H_0 = S/(V_j), which (c)
    makes I_j/I_(j-1) through 1 -> u_j.  If F^(j-1) resolves I_(j-1), the
    long exact sequence of 0 -> F^(j-1) -> F^(j) -> Q_j -> 0 (Weibel, Thm
    1.3.1) makes F^(j) exact in degrees >= 1, and its degree-0 end maps
    by the augmentation onto 0 -> I_(j-1) -> I_j -> I_j/I_(j-1) -> 0 with
    isomorphisms outside, so by the five lemma H_0(F^(j)) = I_j.  The
    strand at b is the degree-b piece of the augmented F, so every strand is
    exact over Q and each F_p, and only the lattice closure is walked, for
    the count.

    Each exponent vector is read once: variables whose exponents agree on
    every cell share one guard-bit field, which is a coefficient's variable
    only if it holds one variable.
    """
    degree0 = cplx.mdegs[0]
    if not degree0 or len(set(degree0)) != len(degree0) or set(degree0) != set(gens):
        return None
    columns = Counter(zip(*(md.exps for layer in cplx.mdegs for md in layer)))
    width = max(map(max, columns)).bit_length() + 1
    guard = sum(1 << (width * f + width - 1) for f in range(len(columns)))
    single = sum(1 << width * f for f, count in enumerate(columns.values()) if count == 1)
    cells = iter(zip(*columns))  # each cell's exponents, one per field
    layers = [[sum(e << width * f for f, e in enumerate(next(cells))) for _ in layer]
              for layer in cplx.mdegs]
    frame, units = frame_complex(cplx).cols, layers[0]
    # (a), (b): each element's (group, set), the set a mask of field low bits
    placed, seen, spans = [(j, 0) for j in range(len(units))], set(), [0] * len(units)
    for q in range(1, len(layers)):
        below, placed_below, placed = layers[q - 1], placed, []
        for c, col in zip(layers[q], frame[q]):
            if not col or any(((c | guard) - below[i]) & guard != guard for i in col):
                return None
            j = max(placed_below[i][0] for i in col)
            steps = [(c - below[i], placed_below[i][1]) for i in col if placed_below[i][0] == j]
            s = reduce(or_, (x for x, _ in steps), 0)
            if len(steps) != q or s.bit_count() != q or (j, s) in seen or not all(
                    x & single and not x & (x - 1) and rest == s ^ x for x, rest in steps):
                return None
            seen.add((j, s))
            placed.append((j, s))
            spans[j] |= s
    sizes = Counter(j for j, _ in seen)
    if any(sizes[j] + 1 != 1 << span.bit_count() for j, span in enumerate(spans)):
        return None
    for j, (u, span) in enumerate(zip(units, spans)):  # (c), both inclusions
        reach = span << (width - 1)
        if any(((u | guard) - v) & reach == reach for v in units[:j]) or not all(
                any((((u + (1 << b)) | guard) - v) & guard == guard for v in units[:j])
                for b in range(0, span.bit_length(), width) if span >> b & 1):
            return None
    if _nonzero_composite(frame) is not None:  # (d)
        return None
    return StrandReport(True, len(_lcm_closure(units, guard, width)), primes, [])


def _lcm_closure(gens, guard: int, width: int) -> set:
    """The lcm lattice of packed degrees ``gens``, on fields of ``width`` bits
    whose top bits make ``guard``.

    Adds the generators one at a time, repeats dropped: g and its join with
    each element so far.  A join is SWAR: the guard of a field survives
    ``(a | guard) - g`` where a's exponent is at least g's, and subtracting
    the guards shifted to the fields' low bits widens them into field masks.
    """
    shift = width - 1
    elements = set()
    for g in dict.fromkeys(gens):
        joins = {g}
        for a in elements:
            ge = ((a | guard) - g) & guard
            keep = ge - (ge >> shift)
            joins.add((a & keep) | (g & ~keep))
        elements |= joins
    return elements


class _StrandFrame:
    """The augmented frame complex of a free complex, on bitmasks.

    Basis element k of degree q is bit ``offsets[q + 1] + k``, and bit 0 is
    degree -1, the ideal component; ``levels[q + 1]`` masks degree q.  A
    strand is a mask too: the AND over the variables v of ``below[e]``, the
    bits whose exponent rank in v is at most b's rank e (bit 0 always), read
    off b's field at ``shift``; a table has one mask per rank, so it is no
    longer than the generators and cells together.  ``frame`` is
    ``frame_complex(cplx)``, and ``cols[p]`` holds each of its columns as one
    row bitmask for p = 2 and as its (entries 1, entries -1) masks for p = 3.
    """

    def __init__(self, cplx: FreeComplex, packing: _Packing):
        self.frame = frame_complex(cplx)
        self.sizes = self.frame.ranks
        self.offsets = [0, *accumulate(self.sizes[:-1])]
        self.levels = [((1 << n) - 1) << off for off, n in zip(self.offsets, self.sizes)]
        nbits = sum(self.sizes)
        self.full = (1 << nbits) - 1
        self.guard, self.width = packing.guard, packing.width
        self.field = (1 << (packing.width - 1)) - 1
        self.below = []  # (shift, below) per variable in which basis degrees differ
        ranks = zip(*(packing.ranked(md) for layer in cplx.mdegs for md in layer))
        for v, (col, count) in enumerate(zip(ranks, packing.counts)):
            top = max(col)
            if not top:
                continue
            masks = [1] * top + [self.full] * (count - top)
            for bit, e in enumerate(col, start=1):
                if e < top:
                    masks[e] |= 1 << bit
            for e in range(1, top):
                masks[e] |= masks[e - 1]
            self.below.append((packing.width * (packing.size - 1 - v), masks))
        self.cols = {2: [0] * nbits, 3: [(0, 0)] * nbits}
        for q, layer in enumerate(self.frame.cols):
            for bit, col in enumerate(layer, start=self.offsets[q + 1]):
                rows = [(self.offsets[q] + i, x) for i, x in col.items()]
                self.cols[2][bit] = sum(1 << r for r, x in rows if x % 2)
                self.cols[3][bit] = (sum(1 << r for r, x in rows if x % 3 == 1),
                                     sum(1 << r for r, x in rows if x % 3 == 2))
        # whether each strand is a subcomplex (every entry's row degree divides
        # its column degree) and the frame squares to zero over Z
        degrees = [[packing.pack(md) for md in layer] for layer in cplx.mdegs]
        self.z_complex = all(
            (cg - degrees[q - 1][i]) & self.guard == self.guard
            for q in range(1, len(self.frame.cols))
            for cg, col in zip((d | self.guard for d in degrees[q]), self.frame.cols[q])
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

    def strand(self, b: int) -> int:
        """The mask of the basis elements whose degree divides the packed
        degree ``b``."""
        sub, field = self.full, self.field
        for shift, below in self.below:
            sub &= below[b >> shift & field]
        return sub

    def lattice(self, gens) -> dict:
        """The lcm lattice of the packed generator degrees ``gens``
        (``_lcm_closure``), ascending, as ``{b: (strand mask, parent)}``.

        b's parent is a proper divisor of b with the largest strand (None if
        there is none).  Such a divisor is below b in some variable v, where
        b's field is e, so its strand lies in ``strand(b) & below[e - 1]``.
        These masks are looked up largest first, each by the first element
        with that strand, and the first element found that divides b is the
        parent.  Where the cells of degree 0 are the generators and every cell
        degree is an lcm of them, as on the resolutions built here, the first
        lookup finds it.
        """
        guard, field = self.guard, self.field
        elements = _lcm_closure(gens, guard, self.width)
        lattice, owner = {}, {}  # owner: strand mask -> the first element with it
        for b in sorted(elements):
            sub, cuts = self.full, []  # strand(b), and below[e - 1] where e > 0
            for s, below in self.below:
                e = b >> s & field
                sub &= below[e]
                if e:
                    cuts.append(below[e - 1])
            parent, bg = None, b | guard
            for part in sorted([sub & cut for cut in cuts], key=int.bit_count, reverse=True):
                a = owner.get(part)
                if a is not None and (bg - a) & guard == guard:
                    parent = a
                    break
            lattice[b] = (sub, parent)
            owner.setdefault(sub, b)
        return lattice

    def field_verdicts(self, lattice, fields) -> dict:
        """Per b, whether its strand is exact over each F_p in ``fields``: whether
        the ranks sum to half the cells (no homology is negative), on the cells
        the parent's strand lacks if that one is exact over F_p."""
        exact, unknown = {}, (False,) * len(fields)
        for b, (sub, parent) in lattice.items():
            base = lattice[parent][0] if parent is not None else 0
            parts = [sub & ~base if known else sub for known in exact.get(parent, unknown)]
            exact[b] = tuple(part.bit_count() == 2 * sum(self.field_ranks(part, p))
                             for part, p in zip(parts, fields))
        return exact

    def field_ranks(self, sub: int, p: int) -> list:
        """The ranks over F_p of the maps on ``sub``, the augmentation first."""
        return _top_down_ranks(sub, self.levels, self.cols[p], _INSERT[p])

    def strand_cols(self, sub: int) -> list:
        """The frame's sparse columns restricted to the strand ``sub``, rows and
        columns, the augmentation first; a column outside it is empty, so
        indices are the frame's."""
        return [
            [{i: x for i, x in col.items() if sub >> (self.offsets[q] + i) & 1}
             if sub >> bit & 1 else {}
             for bit, col in enumerate(layer, start=self.offsets[q + 1])]
            for q, layer in enumerate(self.frame.cols)
        ]


def _top_down_ranks(sub: int, levels, cols, insert) -> list:
    """The ranks over a field of the maps of a complex, restricted to the
    basis bits in ``sub``, rows and columns.

    ``levels[t]`` masks degree t from the bottom, ``cols[bit]`` is a basis
    element's boundary as ``insert`` reads it, and the restricted maps
    compose to zero: ``sub`` spans a subcomplex or a quotient of one.
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
            pivots |= insert(basis, cols[bit], sub)
        ranks.append(len(basis))
    return ranks[::-1]


def _f2_insert(basis: dict, x: int, rows: int):
    """Reduce the F_2 vector ``x``, a bitmask cut to ``rows``, by the echelon
    basis ``{leading bit: vector}`` and add it there unless it reduced to
    zero.  Returns the new pivot as a one-bit mask, 0 if none."""
    x &= rows
    while x:
        h = x.bit_length() - 1
        v = basis.get(h)
        if v is None:
            basis[h] = x
            return 1 << h
        x ^= v
    return 0


def _f3_insert(basis: dict, x: tuple, rows: int):
    """``_f2_insert`` over F_3 on bitsliced vectors (Boothby-Bradshaw): ``x``
    is the pair (mask of entries 1, mask of entries -1).  (p, m) + (q, n) is
    ((m | n) ^ t, (p | q) ^ t) with t = (p | n) ^ (m | q), negation swaps the
    masks, and basis vectors are scaled to lead with 1."""
    p, m = x[0] & rows, x[1] & rows
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
