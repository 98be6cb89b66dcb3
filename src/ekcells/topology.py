"""Chain-complex linear algebra over the integers.

Provides the frame (coefficient-free) complex of a free complex, Smith normal
form homology, simplicial homology of order complexes, and the multigraded
strand exactness oracle certifying that a complex is a resolution.

All arithmetic is exact, on sparse integer columns, and ``invariant_factors``
is the one rank kernel: the Smith invariants of a sparse integer matrix, from
+-1 pivots first and the dense ``smith_diagonal`` on the unit-free rest.
Betti numbers, torsion, and ranks over Q and each F_p are read off them.  The
strand oracle first reads exactness off the mapping-cone filtration of the
complex: the cells grouped by generator, each group a Koszul complex on the
variables of the linear quotient of its generator, which takes time linear
in the differential and ranks no strand, and also proves the augmented frame
acyclic over Z.  It reads degrees packed a byte per variable by
``int.from_bytes`` and counts the lattice on a compact code of the
generators alone.  Where that certificate does not apply, it walks the lcm
lattice of the generators and ranks each strand on its Smith invariants,
which name the failing field.  The walk's verdict covers every multidegree
where each cell degree is an lcm of the generators.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress
from operator import or_

from .complexes import FreeComplex
from .monomials import Monomial, square_str
from .posets import SimplicialComplexData

__all__ = [
    "IntegerChainComplex",
    "frame_complex",
    "homology_ranks",
    "simplicial_chain_complex",
    "strand_exactness",
    "StrandReport",
    "invariant_factors",
    "sparse_columns",
    "rank_int",
    "rank_mod_p",
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
    return IntegerChainComplex(-1, [1, *cplx.ranks], _frame_cols(cplx))


def _frame_cols(cplx: FreeComplex) -> list:
    """The ``cols`` of ``frame_complex(cplx)``, read off ``cplx.diffs`` with
    no ``IntegerChainComplex`` and so no validation: a ``FreeComplex`` keeps
    its entries inside its ranks."""
    cols = [[{0: 1} for _ in cplx.basis[0]]] + [[{} for _ in layer] for layer in cplx.basis[1:]]
    for layer, mat in zip(cols[1:], cplx.diffs):
        for (i, j), (sign, _) in mat.items():
            layer[j][i] = sign
    return cols


def _nonzero_composite(cols):
    """The first k at which the sparse boundaries ``cols[k]`` and
    ``cols[k + 1]`` do not compose to zero over Z, or None if none."""
    for k in range(len(cols) - 1):
        lower = cols[k]
        for col in cols[k + 1]:
            image = {}
            for t, x in col.items():
                for i, y in lower[t].items():
                    image[i] = image.get(i, 0) + x * y
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


# -- multigraded strand exactness ------------------------------------------------


@dataclass
class StrandReport:
    """The verdict of ``strand_exactness``.  ``frame_acyclic`` is set where
    the mapping-cone certificate proved the augmented frame's homology over
    Z zero (``_mapping_cone``); the walk, which ranks over Q and the
    requested primes only, never sets it.  It takes no part in ``==``, so
    the two routes' reports compare equal."""

    ok: bool
    strands_checked: int
    primes: tuple
    failures: list = field(default_factory=list)
    frame_acyclic: bool = field(default=False, compare=False)

    def first_failure(self):
        return self.failures[0] if self.failures else None


class _PackedDegrees:
    """The degrees of generators and cells packed into ints (Monagan-Pearce),
    as the lattice walk reads them and the mapping cone counts its lattice.

    Variables whose exponents agree on every generator and cell share one
    field, so each exponent vector is read once.  Fields follow their first
    variable, the first most significant, so packed ints order as
    ``Monomial`` does.  Each field is ``width`` bits, one more than the
    largest exponent needs: that top bit, the guard, is clear in every packed
    degree and every lcm of them, and ``guard`` masks the guard bits, so a
    divides b exactly when ``((b | guard) - a) & guard == guard``.
    ``gens`` are the generators packed and ``layers`` the cells, per degree.
    """

    def __init__(self, gens, mdegs):
        exps = [m.exps for m in gens] + [md.exps for layer in mdegs for md in layer]
        by_variable = list(zip(*exps))  # each variable's exponents
        columns = Counter(by_variable)
        self.width = width = max(map(max, columns), default=0).bit_length() + 1
        self.shifts = [width * f for f in range(len(columns))][::-1]
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        index = {col: f for f, col in enumerate(columns)}
        self.fields = [index[col] for col in by_variable]  # each variable's field
        packed = iter([sum(e << s for e, s in zip(degree, self.shifts)) for degree in zip(*columns)])
        self.gens = [next(packed) for _ in gens]
        self.layers = [[next(packed) for _ in layer] for layer in mdegs]

    def unpack(self, x) -> Monomial:
        mask = (1 << (self.width - 1)) - 1
        fields = [x >> s & mask for s in self.shifts]
        return Monomial(tuple(fields[f] for f in self.fields))


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
    (``_strand_walk``), and only the walk names failures.  A cone report
    also proves the augmented frame acyclic over Z (``frame_acyclic``, by
    the lemma at ``_mapping_cone``), and ``verify`` reads it off the proof.
    """
    gens, primes = list(gens), tuple(primes)
    report = _mapping_cone(cplx, gens, primes)
    return report if report is not None else _strand_walk(cplx, gens, primes)


def _strand_walk(cplx: FreeComplex, gens, primes) -> StrandReport:
    """``strand_exactness`` strand by strand, on the lcm lattice of ``gens``
    (``_lcm_closure``) in ascending order, so failures come in the order of
    their degrees.

    A strand is the frame restricted to the cells whose degree divides b.
    Its maps are ranked once, on their Smith invariants (``invariant_factors``),
    and read over Q and over each requested prime; the first field where some
    homology is nonzero fails.  Whether the frame is a Z-complex is checked
    once: every row degree divides its column degree, so each strand is a
    subcomplex, and the frame composes to zero.  Off a Z-complex a strand
    whose ranks pass need not be a complex, and one whose maps do not compose
    fails with field "Z", defect None.
    """
    packing = _PackedDegrees(gens, cplx.mdegs)
    guard, frame = packing.guard, _frame_cols(cplx)
    degrees = [[0], *packing.layers]  # the augmentation's degree divides every b
    z_complex = all(
        ((c | guard) - rows[i]) & guard == guard
        for rows, cols, layer in zip(degrees, degrees[1:], frame)
        for c, col in zip(cols, layer) for i in col
    ) and _nonzero_composite(frame) is None
    lattice = sorted(_lcm_closure(packing.gens, guard))
    failures = []
    for b in lattice:
        bg = b | guard
        inside = [[(bg - d) & guard == guard for d in layer] for layer in degrees]
        cols = [[{i: x for i, x in col.items() if rows[i]} if keep else {}
                 for keep, col in zip(cells, layer)]
                for rows, cells, layer in zip(inside, inside[1:], frame)]
        dims = list(map(sum, inside))
        invariants = [invariant_factors(layer) for layer in cols]
        for p in (0,) + primes:  # 0 for Q: every invariant is a unit there
            ranks = [len(inv) if p == 0 else sum(1 for d in inv if d % p) for inv in invariants]
            defect = _exactness_defect(dims, ranks)
            if defect is not None:
                failure = {"field": f"F{p}" if p else "Q", "position": defect[0],
                           "defect": defect[1]}
                break
        else:
            k = None if z_complex else _nonzero_composite(cols)
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

    Every cell degree then divides L = lcm(u_1..u_m), so the strand at L is
    the whole augmented frame, and the report sets ``frame_acyclic``.  By
    (b) a cell of group j has degree u_j * prod(S) with S a subset of V_j.
    By (c) no u_i, i < j, divides u_j, or (u_<j) : u_j would be the unit
    ideal; yet for each x in V_j some u_i, i < j, divides x * u_j, so that
    u_i has exactly one more x than u_j, and L does too.  The frame is thus
    exact over Q and over every F_p, and its reduced homology over Z, being
    finitely generated, is 0 by the universal coefficient theorem.

    Degrees are packed once per call (``_byte_packed``), one whole-byte
    field per variable, so a quotient is one variable to the first power
    exactly when it is a single bit and that bit is a field's low bit.  The
    lattice is counted on a compact code of the units alone (``_unit_code``).
    """
    mdegs = cplx.mdegs
    units = [m.exps for m in mdegs[0]]
    if not units or len(set(units)) != len(units) or set(units) != {m.exps for m in gens}:
        return None
    layers, guard, low = _byte_packed(mdegs)
    frame, packed_units = _frame_cols(cplx), layers[0]
    # (a), (b): each element's (group, set), the set a mask of field low bits;
    # each group's size, its unit included, and its span V_j
    m = len(units)
    placed, seen, sizes, spans = [(j, 0) for j in range(m)], set(), [1] * m, [0] * m
    for q in range(1, len(layers)):
        below, placed_below, placed = layers[q - 1], placed, []
        for c, col in zip(layers[q], frame[q]):
            cg, j, steps = c | guard, -1, []
            for i in col:
                x = cg - below[i]
                if x & guard != guard:  # the row's degree does not divide c
                    return None
                group, rest = placed_below[i]
                if group > j:
                    j, steps = group, [(x ^ guard, rest)]
                elif group == j:
                    steps.append((x ^ guard, rest))
            if len(steps) != q:  # also an empty column, whose j stays -1
                return None
            # the column's set S as its first step gives it: the rows' sets
            # are distinct, of q - 1 variables each, so q one-variable steps
            # x with x | rest == S leave S q variables and rest == S - x
            s = steps[0][0] | steps[0][1]
            for x, rest in steps:
                if not x & low or x & (x - 1) or x | rest != s:
                    return None
            if s.bit_count() != q or (j, s) in seen:
                return None
            seen.add((j, s))
            placed.append((j, s))
            sizes[j] += 1
            spans[j] |= s
    lift = guard.bit_length() - low.bit_length()  # from a field's low bit to its guard
    for j, (u, span) in enumerate(zip(packed_units, spans)):  # (b) every subset, (c)
        if sizes[j] != 1 << span.bit_count():
            return None
        reach, earlier = span << lift, packed_units[:j]
        for v in earlier:
            if ((u | guard) - v) & reach == reach:
                return None
        rest = span
        while rest:
            x = rest & -rest
            rest ^= x
            w = (u + x) | guard
            for v in earlier:
                if (w - v) & guard == guard:
                    break
            else:
                return None
    if _nonzero_composite(frame) is not None:  # (d)
        return None
    return StrandReport(True, len(_lcm_closure(*_unit_code(mdegs[0]))), primes, [], True)


def _byte_packed(mdegs):
    """The degrees ``mdegs`` packed by ``int.from_bytes``, with their guard
    and field low-bit masks.

    Each variable takes one field of whole bytes, the first variable the most
    significant, and as many bytes as keep every exponent below the field's
    top bit, the guard: one while every exponent is below 128.  So a divides
    b exactly when ``((b | guard) - a) & guard == guard``.
    """
    n, from_bytes, size = len(mdegs[0][0].exps), int.from_bytes, 1
    try:
        layers = [[from_bytes(bytes(m.exps), "big") for m in layer] for layer in mdegs]
        wide = reduce(or_, chain.from_iterable(layers)) & from_bytes(b"\x80" * n, "big")
    except ValueError:  # bytes() takes no exponent above 255
        wide = True
    if wide:
        size = max(e for layer in mdegs for m in layer for e in m.exps).bit_length() // 8 + 1
        layers = [[from_bytes(b"".join(e.to_bytes(size, "big") for e in m.exps), "big")
                   for m in layer] for layer in mdegs]
    guard = from_bytes((b"\x80" + bytes(size - 1)) * n, "big")
    return layers, guard, guard >> (8 * size - 1)


_BITS = bytes.maketrans(b"\0\1", b"01")  # exponents 0 and 1 as binary digits


def _unit_code(units) -> tuple:
    """The degrees ``units`` coded for ``_lcm_closure``, with their guard:
    one bit per variable and guard 0 where every exponent is 0 or 1, else
    the walk's packing of the units alone, its fields one bit wider than the
    largest exponent (``_PackedDegrees``)."""
    exps = [m.exps for m in units]
    if max(map(max, exps)) <= 1:
        return [int(bytes(e).translate(_BITS), 2) for e in exps], 0
    packing = _PackedDegrees(units, ())
    return packing.gens, packing.guard


def _lcm_closure(gens, guard: int) -> set:
    """The lcm lattice of packed degrees ``gens``, on fields whose top bits
    make ``guard`` (0 for fields of one bit, with no guard).

    Adds the generators one at a time, repeats dropped: g and its join with
    each element so far.  On fields of at most 2 bits every exponent is 0 or
    1, so a join is an OR.  Otherwise it is SWAR: the guard of a field
    survives ``(a | guard) - g`` where a's exponent is at least g's, and
    subtracting the guards shifted to the fields' low bits widens them into
    field masks.
    """
    shift = (guard & -guard).bit_length() - 1  # a field's width less its guard
    elements = set()
    for g in dict.fromkeys(gens):
        if shift < 2:
            joins = set(map(g.__or__, elements))
        else:
            joins = set()
            for a in elements:
                ge = ((a | guard) - g) & guard
                keep = ge - (ge >> shift)
                joins.add((a & keep) | (g & ~keep))
        joins.add(g)
        elements |= joins
    return elements


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

