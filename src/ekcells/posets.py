"""Finite posets and the cell posets of the Eliahou-Kervaire type resolutions.

A ``FinitePoset`` stores opaque element labels plus the cover relation (the
Hasse diagram); comparability is derived by reachability only.  The basis
poset of a resolution has the admissible pairs as elements, covers matching
the differential supports, and an explicit least element ``BOTTOM``.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
from networkx.algorithms import isomorphism

from .ek import AdmissiblePair, admissible_layers, b_set, kind_of
from .ideals import MonomialIdeal

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

    __slots__ = ("elements", "covers", "_idx", "_up", "_down", "_above", "_below", "_ranks")

    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        self._idx = {e: k for k, e in enumerate(self.elements)}
        if len(self._idx) != len(self.elements):
            raise ValueError("duplicate elements")
        n = len(self.elements)
        pairs = set()
        for lo, hi in covers:
            if lo not in self._idx or hi not in self._idx:
                raise ValueError(f"cover ({lo!r}, {hi!r}) uses unknown elements")
            a, b = self._idx[lo], self._idx[hi]
            if a == b:
                raise ValueError(f"reflexive cover at {lo!r}")
            pairs.add((a, b))
        self._up = [[] for _ in range(n)]
        self._down = [[] for _ in range(n)]
        for a, b in sorted(pairs):
            self._up[a].append(b)
            self._down[b].append(a)
        self.covers = tuple(
            (self.elements[a], self.elements[b]) for a, b in sorted(pairs)
        )
        order = self._toposort()
        # _above[i]: bitmask of all j >= i (reflexive); computed bottom-up.
        above = [0] * n
        for i in reversed(order):
            mask = 1 << i
            for j in self._up[i]:
                mask |= above[j]
            above[i] = mask
        self._above = above
        below = [0] * n
        for i in order:
            mask = 1 << i
            for j in self._down[i]:
                mask |= below[j]
            below[i] = mask
        self._below = below
        self._check_reduced()
        self._ranks = None

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

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and set(self.elements) == set(other.elements)
            and set(self.covers) == set(other.covers)
        )

    def __hash__(self):
        return hash((frozenset(self.elements), frozenset(self.covers)))

    def index(self, x) -> int:
        return self._idx[x]

    def leq(self, a, b) -> bool:
        return self._above[self._idx[a]] >> self._idx[b] & 1 == 1

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def up_covers(self, x) -> list:
        return [self.elements[j] for j in self._up[self._idx[x]]]

    def down_covers(self, x) -> list:
        return [self.elements[j] for j in self._down[self._idx[x]]]

    def minimal_elements(self) -> list:
        return [e for k, e in enumerate(self.elements) if not self._down[k]]

    def maximal_elements(self) -> list:
        return [e for k, e in enumerate(self.elements) if not self._up[k]]

    # -- derived posets --------------------------------------------------------

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.elements, [(b, a) for a, b in self.covers])

    def interval(self, a, b) -> "FinitePoset":
        """The closed interval [a, b] as a poset (covers restrict, since
        intervals are convex)."""
        if not self.leq(a, b):
            raise ValueError(f"{a!r} and {b!r} do not satisfy a <= b")
        members = self.interval_set(a, b)
        keep = set(members)
        covers = [(x, y) for x, y in self.covers if x in keep and y in keep]
        return FinitePoset(members, covers)

    def interval_set(self, a, b) -> tuple:
        mask = self._above[self._idx[a]] & self._below[self._idx[b]]
        return tuple(e for k, e in enumerate(self.elements) if mask >> k & 1)

    def up_set(self, a) -> tuple:
        mask = self._above[self._idx[a]]
        return tuple(e for k, e in enumerate(self.elements) if mask >> k & 1)

    def restrict(self, keep) -> "FinitePoset":
        """The induced subposet on ``keep``, with covers recomputed."""
        keep = [e for e in self.elements if e in set(keep)]
        kidx = [self._idx[e] for e in keep]
        mask_keep = 0
        for k in kidx:
            mask_keep |= 1 << k
        covers = []
        for a in kidx:
            # strict successors of a inside keep
            succ = (self._above[a] & ~(1 << a)) & mask_keep
            for b in kidx:
                if not (succ >> b & 1):
                    continue
                implied = False
                for z in kidx:
                    if z != a and z != b and (self._above[a] >> z & 1) and (self._above[z] >> b & 1):
                        implied = True
                        break
                if not implied:
                    covers.append((self.elements[a], self.elements[b]))
        return FinitePoset(keep, covers)

    def without_bottom(self) -> "FinitePoset":
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise ValueError("poset has no unique least element")
        return self.restrict([e for e in self.elements if e != mins[0]])

    # -- chains ---------------------------------------------------------------

    def maximal_chains(self) -> list:
        """All unrefinable chains from a minimal to a maximal element."""
        out = []
        for start in self.minimal_elements():
            self._extend_chain([self._idx[start]], out)
        return [tuple(self.elements[i] for i in chain) for chain in out]

    def _extend_chain(self, prefix, out):
        ups = self._up[prefix[-1]]
        if not ups:
            out.append(list(prefix))
            return
        for j in ups:
            prefix.append(j)
            self._extend_chain(prefix, out)
            prefix.pop()

    def chains_between(self, a, b) -> list:
        """All unrefinable chains from a up to b (maximal chains of [a, b])."""
        if not self.leq(a, b):
            raise ValueError(f"{a!r} and {b!r} do not satisfy a <= b")
        ia, ib = self._idx[a], self._idx[b]
        below_b = self._below[ib]
        out = []

        def walk(prefix):
            last = prefix[-1]
            if last == ib:
                out.append(tuple(self.elements[i] for i in prefix))
                return
            for j in self._up[last]:
                if below_b >> j & 1:
                    prefix.append(j)
                    walk(prefix)
                    prefix.pop()

        walk([ia])
        return out

    # -- structure predicates ---------------------------------------------------

    def ranks(self):
        """Longest-path rank per element if the poset is graded, else None."""
        if self._ranks is None:
            order = self._toposort()
            rank = [0] * len(self.elements)
            for i in order:
                for j in self._down[i]:
                    rank[i] = max(rank[i], rank[j] + 1)
            graded = all(rank[b] == rank[a] + 1 for a in range(len(self.elements)) for b in self._up[a])
            self._ranks = (dict(zip(self.elements, rank)), graded)
        rankmap, graded = self._ranks
        return rankmap if graded else None

    def is_bounded(self) -> bool:
        return len(self.minimal_elements()) == 1 and len(self.maximal_elements()) == 1

    def is_pure(self) -> bool:
        """Whether every maximal chain has the same length."""
        order = self._toposort()
        lo = [0] * len(self.elements)
        hi = [0] * len(self.elements)
        for i in order:
            downs = self._down[i]
            if downs:
                lo[i] = min(lo[j] for j in downs) + 1
                hi[i] = max(hi[j] for j in downs) + 1
        tops = [k for k in range(len(self.elements)) if not self._up[k]]
        lengths = {lo[k] for k in tops} | {hi[k] for k in tops}
        return len(lengths) <= 1

    def is_thin(self) -> bool:
        """Whether every interval of length 2 has cardinality 4."""
        rankmap = self.ranks()
        if rankmap is not None:
            for a in range(len(self.elements)):
                seen = set()
                for z in self._up[a]:
                    for b in self._up[z]:
                        if b in seen:
                            continue
                        seen.add(b)
                        middles = sum(
                            1 for w in self._down[b] if self._above[a] >> w & 1
                        )
                        if middles != 2:
                            return False
            return True
        # ungraded fallback: inspect every comparable pair
        n = len(self.elements)
        for a in range(n):
            for b in range(n):
                if a == b or not (self._above[a] >> b & 1):
                    continue
                members = self._above[a] & self._below[b]
                if self._interval_length(members, a, b) == 2:
                    if bin(members).count("1") != 4:
                        return False
        return True

    def _interval_length(self, members, a, b):
        # longest chain from a to b inside the member mask
        order = self._toposort()
        best = {a: 0}
        for i in order:
            if i not in best:
                continue
            for j in self._up[i]:
                if members >> j & 1 and best.get(j, -1) < best[i] + 1:
                    best[j] = best[i] + 1
        return best.get(b, -1)

    def order_complex(self, drop_bottom: bool = False) -> "SimplicialComplexData":
        """The simplicial complex of chains; facets are the maximal chains."""
        pos = self
        if drop_bottom:
            pos = self.without_bottom()
        facets = [
            frozenset(pos.index(x) for x in chain) for chain in pos.maximal_chains()
        ]
        return SimplicialComplexData(pos.elements, tuple(facets))


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

    def f_vector(self) -> tuple:
        return tuple(len(layer) for layer in self.faces())


def build_gamma(kind: str, ideal: MonomialIdeal) -> FinitePoset:
    """The basis poset of the chosen resolution, with least element BOTTOM.

    Covers out of a pair are read off its label: every plain index removal,
    plus the shifted-generator removals for indices in its B set.  They are
    derived here independently of the differential, so that
    ``check_cover_support`` compares two constructions.
    """
    rules = kind_of(kind)
    layers = admissible_layers(ideal, rules)
    elements = [BOTTOM]
    for layer in layers:
        elements.extend(layer)
    covers = [(BOTTOM, pair) for pair in layers[0]]
    for layer in layers[1:]:
        for pair in layer:
            bset = set(b_set(ideal, pair.F, pair.m, rules))
            for i in pair.F:
                rest = pair.drop(i)
                covers.append((AdmissiblePair(rest, pair.m, rules), pair))
                if i in bset:
                    shifted = rules.shift(ideal, pair.m, i)
                    covers.append((AdmissiblePair(rest, shifted, rules), pair))
    return FinitePoset(elements, covers)


def poset_isomorphic(p1: FinitePoset, p2: FinitePoset) -> bool:
    """Exact poset isomorphism via backtracking on the Hasse diagrams, with
    rank and degree invariants for pruning."""
    if len(p1) != len(p2) or len(p1.covers) != len(p2.covers):
        return False
    r1, r2 = p1.ranks(), p2.ranks()
    if (r1 is None) != (r2 is None):
        return False
    if r1 is not None and sorted(r1.values()) != sorted(r2.values()):
        return False

    def digraph(p, ranks):
        g = nx.DiGraph()
        for e in p.elements:
            g.add_node(p.index(e), rank=-1 if ranks is None else ranks[e])
        for a, b in p.covers:
            g.add_edge(p.index(a), p.index(b))
        return g

    matcher = isomorphism.DiGraphMatcher(
        digraph(p1, r1),
        digraph(p2, r2),
        node_match=lambda x, y: x["rank"] == y["rank"],
    )
    return matcher.is_isomorphic()


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
