"""Chain-complex linear algebra over the integers.

Provides the frame (coefficient-free) complex of a free complex, Smith normal
form homology, simplicial homology of order complexes, the multigraded strand
exactness oracle certifying that a complex is a resolution, and cell-count
utilities on graded posets.

All arithmetic is exact and goes through one kernel, ``invariant_factors``:
the Smith invariants of a sparse integer matrix, from +-1 pivots first and
the dense ``smith_diagonal`` on the unit-free rest.  Homology reads Betti
numbers and torsion off them; ranks over Q and F_p count them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress

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

    ``ranks[k]`` is the rank in degree ``bottom + k``; ``mats[k]`` is the
    boundary from degree ``bottom + k + 1`` to ``bottom + k`` as a dense
    row-major integer matrix of shape ranks[k] x ranks[k+1].
    """

    bottom: int
    ranks: list
    mats: list

    def __post_init__(self):
        if len(self.mats) != max(len(self.ranks) - 1, 0):
            raise ValueError("matrix count does not match rank count")
        for k, mat in enumerate(self.mats):
            if len(mat) != self.ranks[k]:
                raise ValueError(f"matrix {k} has {len(mat)} rows, expected {self.ranks[k]}")
            for row in mat:
                if len(row) != self.ranks[k + 1]:
                    raise ValueError(f"matrix {k} has a row of length {len(row)}")


def frame_complex(cplx: FreeComplex, augmented: bool = False) -> IntegerChainComplex:
    """Replace every coefficient monomial by 1, keeping the signs.

    With ``augmented`` a rank-1 degree (-1) is appended below, receiving the
    all-ones row from degree 0 (the empty cell).
    """
    ranks = list(cplx.ranks)
    mats = []
    for q in range(1, cplx.top + 1):
        mat = [[0] * ranks[q] for _ in range(ranks[q - 1])]
        for (i, j), (sign, _) in cplx.boundary(q).items():
            mat[i][j] = sign
        mats.append(mat)
    if augmented:
        return IntegerChainComplex(-1, [1] + ranks, [[[1] * ranks[0]]] + mats)
    return IntegerChainComplex(0, ranks, mats)


# -- exact integer linear algebra ---------------------------------------------


def sparse_columns(mat, ncols=None) -> list:
    """The columns of a dense row-major matrix as ``{row: entry}`` dicts."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(mat):
        for j in compress(range(ncols), row):  # the nonzero positions, found in C
            cols[j][i] = row[j]
    return cols


def invariant_factors(cols) -> list:
    """The nonzero Smith invariants of a matrix given by sparse columns (left
    unmodified).

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
    cols = [sparse_columns(mat, cplx.ranks[k + 1]) for k, mat in enumerate(cplx.mats)]
    for k in range(len(cols) - 1):
        for col in cols[k + 1]:
            image = {}
            for t, x in col.items():
                for i, y in cols[k][t].items():
                    image[i] = image.get(i, 0) + x * y
            if any(image.values()):
                raise ValueError(
                    f"boundaries out of degrees {cplx.bottom + k + 2} and "
                    f"{cplx.bottom + k + 1} do not compose to zero"
                )
    diag = [invariant_factors(c) for c in cols]
    out = []
    for k, rk in enumerate(cplx.ranks):
        incoming = diag[k] if k < len(cplx.mats) else []
        outgoing = diag[k - 1] if k >= 1 else []
        betti = rk - len(incoming) - len(outgoing)
        torsion = tuple(d for d in incoming if d > 1)
        out.append((betti, torsion))
    return out


def simplicial_chain_complex(data: SimplicialComplexData) -> IntegerChainComplex:
    """The augmented simplicial chain complex over Z, whose homology is the
    reduced homology (degree -1 holds the empty face)."""
    by_dim = data.faces()
    ranks = [len(layer) for layer in by_dim]
    index = [{face: k for k, face in enumerate(layer)} for layer in by_dim]
    mats = []
    for d in range(1, len(by_dim)):
        mat = [[0] * ranks[d] for _ in range(ranks[d - 1])]
        for col, face in enumerate(by_dim[d]):
            for pos in range(len(face)):
                sub = face[:pos] + face[pos + 1 :]
                mat[index[d - 1][sub]][col] = -1 if pos % 2 else 1
        mats.append(mat)
    return IntegerChainComplex(-1, [1] + ranks, [[[1] * ranks[0]]] + mats)


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
    (``_Packing``), so the lattice closure is a field-wise maximum and the
    test "md divides b" is one subtract-and-mask: the guards of
    ``(b | guard) - md`` all survive exactly when no field of md exceeds b's.
    A lattice element becomes a monomial again only to name a failure.
    """
    gens = list(gens)
    report = StrandReport(ok=True, strands_checked=0, primes=tuple(primes))
    packing = _Packing(gens + [md for layer in cplx.mdegs for md in layer])
    guard = packing.guard
    layers = [[packing.pack(md) for md in layer] for layer in cplx.mdegs]
    by_col = defaultdict(list)  # (q, column) -> its (row, sign) entries in degree q
    for q in range(1, cplx.top + 1):
        for (i, j), (sign, _) in cplx.boundary(q).items():
            by_col[q, j].append((i, sign))
    lattice = _lcm_lattice({packing.pack(g) for g in gens}, guard, packing.width)
    for b in sorted(lattice, key=packing.sort_key):
        report.strands_checked += 1
        bg = b | guard
        sub = [[k for k, md in enumerate(layer) if (bg - md) & guard == guard] for layer in layers]
        dims = [1] + [len(s) for s in sub]  # degree -1 is the ideal component
        mats = [[{0: 1} for _ in sub[0]]]
        for q in range(1, cplx.top + 1):
            rows = {k: i for i, k in enumerate(sub[q - 1])}
            mats.append([
                {rows[i]: sign for i, sign in by_col[q, col] if i in rows}
                for col in sub[q]
            ])
        invariants = [invariant_factors(m) for m in mats]
        for p in (0,) + report.primes:  # 0 for Q: every invariant is a unit there
            ranks = [len(inv) if p == 0 else sum(1 for d in inv if d % p) for inv in invariants]
            defect = _exactness_defect(dims, ranks)
            if defect is not None:
                report.ok = False
                report.failures.append(
                    {"degree": str(packing.unpack(b)), "field": f"F{p}" if p else "Q",
                     "position": defect[0], "defect": defect[1]}
                )
                break
    return report


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
