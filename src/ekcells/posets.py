"""Finite posets and the cell posets of the Eliahou-Kervaire type resolutions.

A ``FinitePoset`` stores opaque element labels plus the cover relation (the
Hasse diagram); comparability is derived by reachability only.  The cell
poset of a resolution has its basis as elements, the support of its
differential as covers, and an explicit least element ``BOTTOM``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FreeComplex

__all__ = [
    "BOTTOM",
    "FinitePoset",
    "SimplicialComplexData",
    "build_gamma",
    "poset_isomorphic",
    "poset_to_dot",
]


class _Bottom:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "0hat"


BOTTOM = _Bottom()


class FinitePoset:
    """A finite poset given by elements and its cover (Hasse) relation.

    The cover set must be acyclic and transitively reduced; both are checked
    at construction.  Elements keep their given order, which fixes all
    iteration orders downstream.
    """

    __slots__ = ("elements", "covers", "_idx", "_up", "_down", "_above", "_below",
                 "_order", "_rank", "_graded")

    def __init__(self, elements, covers):
        elements = tuple(elements)
        idx = {e: k for k, e in enumerate(elements)}
        if len(idx) != len(elements):
            raise ValueError("duplicate elements")
        pairs = set()
        for lo, hi in covers:
            a, b = idx.get(lo), idx.get(hi)
            if a is None or b is None:
                raise ValueError(f"cover ({lo!r}, {hi!r}) uses unknown elements")
            pairs.add((a, b))
        self._build(elements, idx, pairs)

    @classmethod
    def _of(cls, elements: tuple, pairs) -> "FinitePoset":
        """The poset on ``elements`` with a cover from element a to element b
        for each index pair (a, b) of ``pairs``, in any order, checked as the
        constructor checks covers: only for distinct elements and distinct
        pairs of indices in range."""
        poset = object.__new__(cls)
        poset._build(elements, {e: k for k, e in enumerate(elements)}, pairs)
        return poset

    def _build(self, elements, idx, pairs):
        """Derive the order from the covers by index; raise on a reflexive
        cover, a cycle or an implied cover."""
        self.elements, self._idx = elements, idx
        n = len(elements)
        self._up = up = [[] for _ in range(n)]
        self._down = down = [[] for _ in range(n)]
        for a, b in pairs:
            if a == b:
                raise ValueError(f"reflexive cover at {elements[a]!r}")
            up[a].append(b)
            down[b].append(a)
        for ends in up + down:
            ends.sort()
        self.covers = tuple((elements[a], elements[b]) for a, ups in enumerate(up) for b in ups)
        self._order = order = self._toposort()
        # _above[i]: bitmask of all j >= i (reflexive); computed top-down.
        above = [0] * n
        for i in reversed(order):
            mask = 1 << i
            for j in up[i]:
                mask |= above[j]
            above[i] = mask
        self._above = above
        # _below[i] likewise, computed bottom-up.
        below = [0] * n
        for i in order:
            mask = 1 << i
            for j in down[i]:
                mask |= below[j]
            below[i] = mask
        self._below = below
        self._rank = None
        self._check_reduced()

    def _grading(self) -> tuple:
        """(rank, graded), computed on first use: rank[i] is the length of
        the longest chain from a minimal element up to i, computed bottom-up,
        and the poset is graded when every cover raises it by one."""
        if self._rank is None:
            rank = [0] * len(self.elements)
            for i in self._order:
                rank[i] = max([rank[j] + 1 for j in self._down[i]], default=0)
            self._rank = rank
            self._graded = all(rank[b] == rank[a] + 1
                               for a, ups in enumerate(self._up) for b in ups)
        return self._rank, self._graded

    def _toposort(self):
        n = len(self.elements)
        indeg = [len(self._down[i]) for i in range(n)]
        stack = [i for i in range(n) if indeg[i] == 0]
        order = []
        while stack:
            i = stack.pop()
            order.append(i)
            for j in self._up[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(order) != n:
            raise ValueError("cover relation contains a cycle")
        return order

    def _check_reduced(self):
        for a in range(len(self.elements)):
            ups = self._up[a]
            for b in ups:
                for z in ups:
                    if z != b and self._above[z] >> b & 1:
                        raise ValueError(
                            f"cover ({self.elements[a]!r}, {self.elements[b]!r}) "
                            "is implied by other covers"
                        )

    # -- order queries -------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._idx

    def index(self, x) -> int:
        return self._idx[x]

    def leq(self, a, b) -> bool:
        return self._above[self._idx[a]] >> self._idx[b] & 1 == 1

    def down_covers(self, x) -> list:
        return [self.elements[j] for j in self._down[self._idx[x]]]

    def minimal_elements(self) -> list:
        return [e for k, e in enumerate(self.elements) if not self._down[k]]

    # -- derived posets --------------------------------------------------------

    def dual(self) -> "FinitePoset":
        """The opposite poset, not revalidated: this one's up and down covers
        and masks swapped (shared; neither changes them), its order reversed."""
        d = object.__new__(FinitePoset)
        d.elements, d._idx = self.elements, self._idx
        d._up, d._down, d._above, d._below = self._down, self._up, self._below, self._above
        d._order = self._order[::-1]
        d.covers = tuple((self.elements[a], self.elements[b])
                         for a, ups in enumerate(d._up) for b in ups)
        d._rank = None
        return d

    # -- chains ---------------------------------------------------------------

    def chains_between(self, a, b) -> list:
        """All unrefinable chains from a up to b (maximal chains of [a, b])."""
        if not self.leq(a, b):
            raise ValueError(f"{a!r} and {b!r} do not satisfy a <= b")
        paths = self._chains(self._idx[a], self._below[self._idx[b]])
        return [tuple(self.elements[k] for k in path) for path in paths]

    def _chains(self, start, within) -> list:
        # pre-order walk on an explicit stack from index start up the covers
        # inside the bitmask within; each index path that no such cover
        # extends is a chain
        out, stack = [], [(start,)]
        while stack:
            path = stack.pop()
            ups = [j for j in self._up[path[-1]] if within >> j & 1]
            if not ups:
                out.append(path)
            stack.extend(path + (j,) for j in reversed(ups))
        return out

    # -- structure predicates ---------------------------------------------------

    def ranks(self):
        """Longest-path rank per element if the poset is graded, else None."""
        rank, graded = self._grading()
        return dict(zip(self.elements, rank)) if graded else None

    def is_pure(self) -> bool:
        """Whether every maximal chain has the same length: the poset is
        graded (a cover that skips a rank puts two maximal chains of unequal
        length through it) and its maximal elements share one rank."""
        rank, graded = self._grading()
        tops = {r for r, ups in zip(rank, self._up) if not ups}
        return graded and len(tops) <= 1

    def is_thin(self) -> bool:
        """Whether every interval of length 2 has cardinality 4.

        [a, b] has length 2 exactly when b is two covers above a and every
        element strictly between them covers a; it has 4 elements when there
        are two of those.
        """
        for a, ups in enumerate(self._up):
            covers_a = sum(1 << z for z in ups)
            for b in {b for z in ups for b in self._up[z]}:
                middles = self._above[a] & self._below[b] & ~(1 << a | 1 << b)
                if middles & ~covers_a == 0 and middles.bit_count() != 2:
                    return False
        return True

    def order_complex(self, drop_bottom: bool = False) -> "SimplicialComplexData":
        """The simplicial complex of chains; facets are the maximal chains.

        With ``drop_bottom``, that of the poset minus its least element: the
        chains then start at the covers of the least element, and vertex k is
        the k-th of the other elements.  Maximal chains are pairwise
        incomparable, so the complex is not revalidated."""
        starts = [k for k, downs in enumerate(self._down) if not downs]
        vertices, skip = self.elements, len(self.elements)
        if drop_bottom:
            if len(starts) != 1:
                raise ValueError("poset has no unique least element")
            skip = starts[0]
            starts, vertices = self._up[skip], vertices[:skip] + vertices[skip + 1:]
        everything = (1 << len(self.elements)) - 1
        facets = tuple(frozenset([k - (k > skip) for k in path])
                       for k in starts for path in self._chains(k, everything))
        return SimplicialComplexData._of(vertices, facets)


@dataclass(frozen=True)
class SimplicialComplexData:
    """A simplicial complex given by its facets (as vertex index sets)."""

    vertices: tuple
    facets: tuple

    def __post_init__(self):
        facets = tuple(frozenset(f) for f in self.facets)
        object.__setattr__(self, "facets", facets)
        for f in facets:
            for v in f:
                if not 0 <= v < len(self.vertices):
                    raise ValueError(f"facet vertex {v} out of range")
        for f in facets:
            for g in facets:
                if f is not g and f != g and f <= g:
                    raise ValueError("facets must be pairwise incomparable")

    @classmethod
    def _of(cls, vertices: tuple, facets: tuple) -> "SimplicialComplexData":
        """The complex with these vertices and facets, unchecked: only for
        pairwise incomparable frozensets of vertex indices in range."""
        data = object.__new__(cls)
        object.__setattr__(data, "vertices", vertices)
        object.__setattr__(data, "facets", facets)
        return data

    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    def faces(self) -> list:
        """All nonempty faces, grouped by dimension."""
        seen = set()
        for f in self.facets:
            stack = [frozenset(f)]
            while stack:
                s = stack.pop()
                if s in seen or not s:
                    continue
                seen.add(s)
                for v in s:
                    stack.append(s - {v})
        by_dim = [[] for _ in range(self.dim() + 1)]
        for s in seen:
            by_dim[len(s) - 1].append(tuple(sorted(s)))
        for layer in by_dim:
            layer.sort()
        return by_dim


def build_gamma(cplx: FreeComplex) -> FinitePoset:
    """The cell poset of a resolution, read off its differential: BOTTOM
    covered by each basis element of degree 0, and one cover per differential
    entry, from its row to its column (the support of the differential, as in
    Bayer-Sturmfels, "Cellular resolutions of monomial modules", 1998)."""
    elements, offsets = [BOTTOM], []
    for layer in cplx.basis:
        offsets.append(len(elements))  # basis[q][k] is element offsets[q] + k
        elements.extend(layer)
    pairs = [(0, k) for k in range(1, 1 + len(cplx.basis[0]))]
    for q, mat in enumerate(cplx.diffs, start=1):
        lo, hi = offsets[q - 1], offsets[q]
        pairs.extend((lo + i, hi + j) for i, j in mat)
    return FinitePoset._of(tuple(elements), pairs)


def poset_isomorphic(p1: FinitePoset, p2: FinitePoset) -> bool:
    """Exact poset isomorphism of two Hasse diagrams.

    Both posets are coloured together by rank (-1 if not graded), refined by
    the colours of up and down covers until no class splits (McKay-Piperno,
    arXiv:1301.1493).  Equal colour histograms go to a backtracking search,
    on an explicit stack, that maps p1's elements in topological order onto
    p2 elements of the same colour whose down covers are the images of theirs.
    """
    n = len(p1)
    if n != len(p2) or len(p1.covers) != len(p2.covers):
        return False
    # element k of p1 is vertex k, element k of p2 is vertex n + k
    up = p1._up + [[n + j for j in js] for js in p2._up]
    down = p1._down + [[n + j for j in js] for js in p2._down]
    colour = []
    for p in (p1, p2):
        rank, graded = p._grading()
        colour += rank if graded else [-1] * n
    classes = 0
    while len(set(colour)) > classes:
        classes = len(set(colour))
        # the old colour leads each signature, so classes only ever split
        sigs = [
            (colour[v], tuple(sorted(colour[w] for w in up[v])),
             tuple(sorted(colour[w] for w in down[v])))
            for v in range(2 * n)
        ]
        palette = {s: c for c, s in enumerate(sorted(set(sigs)))}
        colour = [palette[s] for s in sigs]
    if sorted(colour[:n]) != sorted(colour[n:]):
        return False

    def candidates(v):
        want = {image[u] for u in down[v]}
        pool = up[image[down[v][0]]] if down[v] else range(n, 2 * n)
        return (w for w in pool if colour[w] == colour[v] and w not in used
                and set(down[w]) == want)

    order, image, used = p1._order, {}, set()
    stack = [candidates(order[0])] if n else []
    while stack and len(image) < n:
        v = order[len(stack) - 1]
        if v in image:
            used.remove(image.pop(v))
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        image[v] = w
        used.add(w)
        if len(image) < n:
            stack.append(candidates(order[len(stack)]))
    return len(image) == n


def poset_to_dot(poset: FinitePoset, name: str = "poset") -> str:
    """Hasse diagram in DOT syntax, one rank per layer."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box, fontsize=10];']
    for k, e in enumerate(poset.elements):
        label = str(e).replace('"', r"\"")
        lines.append(f'  n{k} [label="{label}"];')
    rankmap = poset.ranks()
    if rankmap is not None:
        by_rank = {}
        for e in poset.elements:
            by_rank.setdefault(rankmap[e], []).append(poset.index(e))
        for r in sorted(by_rank):
            members = "; ".join(f"n{k}" for k in by_rank[r])
            lines.append(f"  {{ rank=same; {members}; }}")
    for a, b in poset.covers:
        lines.append(f"  n{poset.index(a)} -> n{poset.index(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
