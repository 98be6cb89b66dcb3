"""EL-labelings on dual cell posets, shelling search, recursive coatom
orderings, CW certification, and the three-condition closed-ball check, which
certifies with a coatom ordering of the cells before it builds an order
complex to search.

The edge labeling on the dual poset assigns 0 to the top covers into the
least element, -i to a plain index removal, and +i to a removal that also
shifts the generator.  An interval passes EL verification when it has exactly
one weakly increasing maximal chain and that chain is strictly lex-least
(Bjorner-Wachs, "On lexicographically shellable posets", Trans. AMS 277, 1983).

``verify_el_all`` counts chains instead of listing them.  For x < b, let y
run over the covers of x below b, and l(y) be the label of x <* y:

* rising[x, b][l] = the sum, over the y with l(y) = l, of the weakly
  increasing chains of [y, b] whose first label is >= l (the one chain of
  [b, b] counts): the weakly increasing chains of [x, b], by first label;
* lex[x, b] = (word, ok): word is the least of the words l(y) followed by
  the word of [y, b], and ok says that word is weakly increasing: ok holds
  for [y, b] and l(y) is at most the first label of its word.  Every chain
  that carries an increasing word increases, so where [x, b] has one
  increasing chain, an increasing least word is unique and that chain
  carries it.

Each x merges these records of its covers, so the sweep is one pass over the
pairs x <= b, in reverse topological order, and lists no chain and counts no
maximal chain.  Verdicts and their failure messages read the records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import topology
from .complexes import FreeComplex
from .posets import BOTTOM, FinitePoset, SimplicialComplexData

__all__ = [
    "ELSweep",
    "BallVerdict",
    "CoatomOrdering",
    "ShellingResult",
    "el_label_edge",
    "verify_el_all",
    "is_cw_poset",
    "coatom_ordering",
    "find_shelling",
    "verify_shelling_order",
    "ball_check",
]

# above every label: the first label of the empty word of [b, b]
_TOP = 1 << 60

# nodes a shelling search visits before it gives up, inconclusive
NODE_BUDGET = 500_000


@dataclass(slots=True, eq=False)
class ELSweep:
    """What ``verify_el_all`` computes on ``dual``: ``cover_labels[i][k]``
    labels the cover from element i to ``dual._up[i][k]``, ``rising`` and
    ``lex`` are the per-pair records by element index, and ``failing`` lists
    the index pairs (a, b) whose [a, b] fails.

    ``len()``, ``failures()`` and ``intervals()`` read the records, in
    interval order: a and then b in element order.
    """

    dual: FinitePoset
    cover_labels: list
    rising: list
    lex: list
    failing: list

    def __len__(self):
        return sum(map(len, self.lex)) - len(self.lex)  # less the pairs [a, a]

    def failures(self) -> list:
        """The (bottom, top) of each failing interval, in interval order."""
        els = self.dual.elements
        return [(els[a], els[b]) for a, b in sorted(self.failing)]

    def intervals(self):
        """(bottom, top, word) of each interval, in interval order: word is the
        label word of its one increasing chain, which is lex-least, where the
        interval passes, else None."""
        els, failing = self.dual.elements, set(self.failing)
        for a, oa in enumerate(self.lex):
            ea = els[a]
            for b in sorted(oa):
                if b != a:
                    yield ea, els[b], None if (a, b) in failing else oa[b][0]


@dataclass
class ShellingResult:
    order: object       # list of facet indices, or None
    exhaustive: bool    # when order is None: search space fully explored


@dataclass
class BallVerdict:
    # the ball check's CoatomOrdering where it found one, else the shelling
    # search's facet order, or None
    constructible_certificate: object
    cond2: bool                        # every ridge in at most two facets
    cond3: bool                        # some ridge in exactly one facet
    homology_trivial: bool
    verdict: str                       # "ball-certified" | "refuted" | "inconclusive"
    detail: str = ""


def el_label_edge(lower, upper, ideal) -> int:
    """Label of a cover ``lower <* upper`` of the dual basis poset.

    The shifted-generator case is verified against the shift rule of
    ``lower.kind`` on ``ideal``.
    """
    if upper is BOTTOM:
        if lower.F != ():
            raise ValueError(f"{lower!r} is not covered by the least element in the dual")
        return 0
    # both index tuples increase, so upper's is lower's less one index exactly
    # when it is one shorter and continues, from the first position k where
    # they part, with lower's past k
    F, G = lower.F, upper.F
    k = 0
    for f, g in zip(F, G):
        if f != g:
            break
        k += 1
    if len(F) != len(G) + 1 or F[k + 1:] != G[k:]:
        raise ValueError(f"({lower!r}, {upper!r}) is not a dual cover")
    i = F[k]
    if upper.m.exps == lower.m.exps:
        return -i
    if upper.m.exps != lower.kind.shift(ideal, lower.m, i).exps:
        raise ValueError(f"cover ({lower!r}, {upper!r}) matches neither labeling case")
    return i


def verify_el_all(dual: FinitePoset, ideal) -> ELSweep:
    """The EL sweep over every nontrivial interval [a, b] of the dual poset, a
    and then b in element order.

    Each cover is labelled once.  Then each x, in reverse topological order,
    merges the records of [y, b] of its covers y into those of [x, b], by the
    recurrences of the module docstring, taking the covers in increasing label
    order, so that a cover of greater label than the kept word's first is
    passed over and only covers of a tied label compare their words.  [a, b]
    passes when it has exactly one increasing chain and its lex-least word is
    increasing: that chain then carries the word, which no other chain does.
    The result holds the labels and records (``ELSweep``).
    """
    els, up = dual.elements, dual._up  # by index, so that no element is hashed
    label = [[el_label_edge(els[i], els[j], ideal) for j in ups] for i, ups in enumerate(up)]
    n = len(els)
    # per x and b >= x: rising[x][b] is the first label of the one increasing
    # chain of [x, b], or {first label: count} when it has more, and missing
    # when it has none (a dict for every pair costs 40-80% more sweep time);
    # lex[x][b] is (word, ok): its lex-least word and whether that word is
    # weakly increasing.  lex[x] has a key for every b >= x.  [x, x] has one
    # chain, whose empty word counts as starting with _TOP.  failing lists
    # the (x, b) whose [x, b] fails, once its records are complete.
    rising, lex, failing = [None] * n, [None] * n, []
    for x in reversed(dual._order):
        rx, ox = {x: _TOP}, {x: ((), True)}
        for lab, y in sorted(zip(label[x], up[x])):
            ry = rising[y]
            for b, (word, ok) in lex[y].items():
                r = ry.get(b)
                if r is not None:
                    k = lab <= r if r.__class__ is int else _rising_from(r, lab)
                    if k:
                        old = rx.get(b)
                        rx[b] = lab if old is None and k == 1 else _merge(old, lab, k)
                o = ox.get(b)
                if o is not None and o[0][0] < lab:
                    continue  # an earlier cover of lesser label starts the least word
                word = (lab,) + word
                if o is None or word < o[0]:
                    ox[b] = (word, ok and (len(word) == 1 or lab <= word[1]))
        rising[x], lex[x] = rx, ox
        # the pass rule above: one increasing chain (a bare first label) and
        # an increasing lex-least word
        failing += [(x, b) for b, o in ox.items() if not (o[1] and rx.get(b).__class__ is int)]
    return ELSweep(dual, label, rising, lex, failing)


def _rising_from(r, lab) -> int:
    """The increasing chains of an interval whose first label is >= lab, from
    its ``rising`` record ``r``."""
    if r is None:
        return 0
    if r.__class__ is int:
        return int(lab <= r)
    return sum(count for f, count in r.items() if f >= lab)


def _merge(old, lab, k) -> dict:
    """The ``rising`` record ``old`` with k chains of first label lab added,
    as a dict."""
    out = {} if old is None else {old: 1} if old.__class__ is int else old
    out[lab] = out.get(lab, 0) + k
    return out


def _rising_chain(a, b, up, label, lex, rising):
    """The one increasing chain of [a, b], by index, and its word: from each u
    on it, the cover z below b whose label continues the chain and that
    starts an increasing chain of [z, b]."""
    path, word, u, low = [a], [], a, -_TOP
    while u != b:
        for z, lab in zip(up[u], label[u]):
            if lab >= low and b in lex[z] and _rising_from(rising[z].get(b), lab):
                break
        path.append(z)
        word.append(lab)
        u, low = z, lab
    return path, tuple(word)


def is_cw_poset(poset: FinitePoset, ideal):
    """Certify that a poset is the face poset of a regular CW complex.

    The poset is certified CW exactly when it is thin, has at least two
    elements and a least element, and every interval of its dual passes
    ``verify_el_all``: EL-shellability of the dual intervals shells every
    lower interval, which is Bjorner's CW-poset criterion (Europ. J. Combin.
    5, 1984).  No shelling search runs, so an EL failure reads as not CW.
    Returns (bool, witness dict); when the sweep fails, ``el_first_failure``
    names the first failing dual interval (a, b).  The counts and that
    interval are read off the sweep's records.
    """
    witness = {"thin": poset.is_thin()}
    witness["bounded_below"] = len(poset.minimal_elements()) == 1
    if not (witness["thin"] and witness["bounded_below"] and len(poset) >= 2):
        witness["el_intervals"] = None
        return False, witness
    sweep = verify_el_all(poset.dual(), ideal)
    failures = sweep.failures()
    witness["el_intervals"] = len(sweep)
    witness["el_failures"] = len(failures)
    if failures:
        witness["el_first_failure"] = failures[0]
    return not failures, witness


def find_shelling(data: SimplicialComplexData) -> ShellingResult:
    """Search for a shelling order of a pure complex.

    The search backtracks over facet orders, memoized over facet subsets, and
    visits at most ``NODE_BUDGET`` nodes.  A None result from a search that
    finished is a proof that no shelling exists; a search that runs out of
    nodes returns ``ShellingResult(None, False)``.  Candidate order is
    lexicographic on sorted vertex lists throughout, so results are
    reproducible.

    The search is a depth-first walk on an explicit stack.  A facet can follow
    the placed ones only if it shares a ridge with one of them, so each step
    scans just those facets, in index order, and tests them with
    ``_can_follow``.
    """
    if not data.is_pure():
        raise ValueError("shelling search needs a pure complex")
    facets = sorted(tuple(sorted(f)) for f in data.facets)
    r = len(facets)
    if r <= 1:
        return ShellingResult(list(range(r)), True)
    everything = (1 << r) - 1
    # neighbours[i]: the other facets that share a ridge with facet i
    ridges = {}
    for i, f in enumerate(facets):
        for k in range(len(f)):
            ridges.setdefault(f[:k] + f[k + 1:], []).append(i)
    neighbours = [0] * r
    for sharing in ridges.values():
        for i in sharing:
            for j in sharing:
                if j != i:
                    neighbours[i] |= 1 << j

    placed = [0] * len(data.vertices)  # placed[v]: the placed facets that contain v
    used, order, dead, nodes = 0, [], set(), 1  # the root is the first node
    if nodes > NODE_BUDGET:
        return ShellingResult(None, False)
    # one frame per placed prefix, the root first: [candidates left, frontier]
    stack = [[everything, 0]]
    while stack:
        frame = stack[-1]
        if not frame[0]:
            dead.add(used)
            stack.pop()
            if order:
                i = order.pop()
                used ^= 1 << i
                for v in facets[i]:
                    placed[v] ^= 1 << i
            continue
        bit = frame[0] & -frame[0]
        frame[0] ^= bit
        i = bit.bit_length() - 1
        if used and not _can_follow(facets[i], placed, used):
            continue
        if used | bit == everything:
            order.append(i)
            break
        if used | bit in dead:
            continue
        nodes += 1
        if nodes > NODE_BUDGET:
            return ShellingResult(None, False)
        order.append(i)
        used |= bit
        for v in facets[i]:
            placed[v] |= bit
        frontier = (frame[1] | neighbours[i]) & ~used
        stack.append([frontier, frontier])
    else:
        return ShellingResult(None, True)
    if not verify_shelling_order(data, order):
        raise RuntimeError(f"shelling search returned an order that fails the check: {order}")
    return ShellingResult(order, True)


def verify_shelling_order(data: SimplicialComplexData, order) -> bool:
    """Check the shelling condition for an explicit facet order (on the same
    canonical facet ordering used by find_shelling), in one pass: each facet
    must be able to follow the ones before it."""
    facets = sorted(tuple(sorted(f)) for f in data.facets)
    if sorted(order) != list(range(len(facets))):
        return False
    placed, used = [0] * len(data.vertices), 0
    for i in order:
        if used and not _can_follow(facets[i], placed, used):
            return False
        used |= 1 << i
        for v in facets[i]:
            placed[v] |= 1 << i
    return True


def _can_follow(f, placed, used) -> bool:
    """Whether facet ``f`` can follow the placed facets in a shelling.

    ``placed[v]`` is the bitmask of the placed facets that contain vertex v
    and ``used`` their union.  The restriction face of f is the set of its
    vertices v whose ridge f - v lies in a placed facet; f can follow exactly
    when that face is nonempty and lies in no placed facet (Bjorner-Wachs,
    "Shellable nonpure complexes and posets I", Trans. AMS 348, 1996).
    """
    restricted, common = False, used
    for v in f:
        ridge = used
        for u in f:
            if u != v:
                ridge &= placed[u]
        if ridge:
            restricted, common = True, common & placed[v]
    return restricted and not common


@dataclass(slots=True)
class CoatomOrdering:
    """A recursive coatom ordering of a cell poset with a top added, by
    element index: ``tops`` lists its top cells in order, and
    ``facets[c, first]`` the facets of the cell c in the order found for
    [0hat, c] when the facets in the bitmask ``first`` must come first."""

    tops: tuple
    facets: dict


class _OutOfBudget(Exception):
    pass


def coatom_ordering(poset: FinitePoset):
    """A recursive coatom ordering of the poset with a top 1hat added, or None
    if none is found (Bjorner-Wachs, Trans. AMS 277, 1983, Def. 3.1, dual).

    The top cells c_1, ..., c_t are ordered so that, for j >= 2, with Z_j the
    facets of c_j that lie in an earlier c_i: (ii) every face of c_j in an
    earlier c_i, 0hat included (so Z_j is not empty), lies below some z in
    Z_j; and (i) [0hat, c_j] has such an ordering of its facets, recursively,
    that lists Z_j first.  An interval of length <= 2 takes any order.

    Each level is a depth-first walk on an explicit stack over the sets of
    placed cells, as ``find_shelling`` walks facet sets: both conditions
    depend only on the placed set, so a set from which no order completes is
    kept as dead.  Candidates after the first are the cells with a facet
    below a placed one (Z_j is not empty), in index order, and (ii) is a
    test of bitmasks on ``_below``.  Results are kept per (cell, first
    facets) for this call.  Each candidate tried counts against
    ``NODE_BUDGET``; a walk that runs out returns None, as one that finds
    nothing does.
    """
    below, down, up = poset._below, poset._down, poset._up
    rank, _ = poset._grading()
    tops = [k for k, ups in enumerate(up) if not ups]
    memo, tried = {}, 0

    def ordered(cell, first):
        """The facets of cell (the top 1hat when None) in an order that lists
        the bitmask first first and satisfies (i) and (ii), or None."""
        nonlocal tried
        key = (cell, first)
        if key in memo:
            return memo[key]
        facets = tops if cell is None else down[cell]
        if (max(rank[t] for t in tops) + 1 if cell is None else rank[cell]) <= 2:
            memo[key] = tuple(sorted(facets, key=lambda z: not first >> z & 1))
            return memo[key]
        level, below_level = 0, 0  # the cells to order, and their facets
        for z in facets:
            level |= 1 << z
            for w in down[z]:
                below_level |= 1 << w
        order, used, dead = [], 0, set()
        # one frame per placed prefix, the root first: [candidates left,
        # frontier, the elements below a placed cell]
        stack = [[first or level, 0, 0]]
        while stack:
            frame = stack[-1]
            if not frame[0]:
                dead.add(used)
                stack.pop()
                if order:
                    used ^= 1 << order.pop()
                continue
            bit = frame[0] & -frame[0]
            frame[0] ^= bit
            z = bit.bit_length() - 1
            tried += 1
            if tried > NODE_BUDGET:
                raise _OutOfBudget
            if used | bit in dead:
                continue
            reach, zs, cover = frame[2], 0, 0
            for w in down[z]:
                if reach >> w & 1:
                    zs |= 1 << w
                    cover |= below[w]
            if below[z] & reach & ~cover or ordered(z, zs) is None:
                continue
            order.append(z)
            used |= bit
            if used == level:
                break
            frontier, fresh = frame[1], below[z] & below_level & ~reach
            while fresh:  # the cells over each facet of the level z reaches first
                w = fresh & -fresh
                fresh ^= w
                for y in up[w.bit_length() - 1]:
                    frontier |= 1 << y
            frontier &= level & ~used
            rest = first & ~used
            stack.append([frontier & rest if rest else frontier, frontier, reach | below[z]])
        memo[key] = tuple(order) if stack else None
        return memo[key]

    try:
        found = ordered(None, 0) if tops else None
    except _OutOfBudget:
        return None
    if found is None:
        return None
    return CoatomOrdering(found, {k: v for k, v in memo.items() if v is not None})


def ball_check(poset: FinitePoset, cplx: FreeComplex, cw_result, strands=None) -> BallVerdict:
    """Evaluate the closed-ball criteria on the cell poset of the resolution
    ``cplx`` (of kind ``cplx.kind``) minus its least element, given the
    poset's ``is_cw_poset`` result ``cw_result`` and, if the caller has it,
    the ``strand_exactness`` report ``strands`` of ``cplx``.

    Certification requires a shelling (constructibility witness) plus the two
    ridge-incidence conditions, cond2 (every ridge in at most two top cells)
    and cond3 (some ridge in exactly one).  The witness is sought on the cells
    first: a recursive coatom ordering (``coatom_ordering``) of the pure
    poset with a top 1hat added makes it CL-shellable (Bjorner-Wachs, "On
    lexicographically shellable posets", Trans. AMS 277, 1983, Thm 3.2, in
    dual form), so the lexicographic order of its maximal chains shells the
    order complex of the poset minus 0hat, the barycentric subdivision of
    the regular CW complex (Bjorner, "Posets, regular CW complexes and Bruhat
    order", Europ. J. Combin. 5, 1984, Sec. 4).  A ridge of that subdivision
    is a maximal chain less one cell: less a cell below the top one, it lies
    in two facets (the poset is thin), and less the top cell, so ending at a
    ridge r of the cells, in as many as r has top cells.  So cond2 and cond3
    carry over, and a shellable complex whose ridges lie in at most two
    facets, some in one, is a ball (Danaraj-Klee, "Shellings of spheres and
    polytopes", Duke Math. J. 41, 1974).  Purity is a precondition, since a non-pure poset may have
    an ordering too.  Where none is found the order complex is built and
    searched (``find_shelling``), and every other verdict is read as before.
    Refutation requires a definite obstruction: a ridge in more than two top
    cells, nontrivial reduced homology, a non-pure complex, or an exhaustive
    shelling search that proves unshellability in dimension <= 2, where every
    triangulated ball is shellable (unshellable 3-balls exist: Rudin, 1958).
    Refutations still come from that search alone.  Any other failed search
    is inconclusive, as is everything else.  Certified CW means EL-certified:
    a poset whose EL sweep fails is not CW (``"cw": false`` in ``verify``),
    and its verdict is inconclusive.

    The ridge counts and the reduced homology are read off the augmented
    frame of ``cplx``, whose entries are the poset's covers.  The poset is
    graded above one least element exactly when every cell of degree >= 1 has
    a facet; then a ridge's top cells are the entries in its row of the top
    map.  A poset certified CW is the face poset of a regular CW complex X;
    the frame has entries +-1 exactly on its covers and d o d = 0, and any two
    incidence functions of X differ only by orientation signs (Lundell-
    Weingram, *The Topology of CW Complexes*, 1969, Ch. V).  So the frame is
    isomorphic to X's reduced cellular chain complex, whose homology is the
    order complex's.

    That homology is proved zero, not computed, where ``strands`` sets
    ``frame_acyclic``: its mapping-cone certificate (Herzog-Takayama) gives
    each cell of generator u_j the degree u_j * prod(S), S a set of
    variables x for which some earlier generator has exactly one more x than
    u_j.  So every cell degree divides the lcm L of the generators, the
    strand at L is the whole augmented frame, exact over Q and every F_p,
    and its homology over Z is 0 by the universal coefficient theorem.
    Without such a report it is computed from Smith invariants, and only then
    is the frame built as an ``IntegerChainComplex``.
    """
    cw_ok, _ = cw_result
    cols = topology._frame_cols(cplx)
    # a cell of degree >= 1 without a facet leaves no ridge count, and then
    # neither ridge condition holds
    countable = all(col for layer in cols for col in layer)
    incidences = Counter(row for col in cols[-1] for row in col).values()
    cond2 = countable and all(c <= 2 for c in incidences)
    cond3 = countable and any(c == 1 for c in incidences)
    # through the module, so that a wrapper on topology.homology_ranks sees it
    hom_trivial = (strands is not None and strands.frame_acyclic) or all(
        betti == 0 and not torsion
        for betti, torsion in topology.homology_ranks(topology.frame_complex(cplx))
    )
    if not cw_ok:
        return BallVerdict(None, cond2, cond3, hom_trivial, "inconclusive",
                           "poset not certified as CW")
    pure = poset.is_pure()
    shell = ShellingResult(None, True)
    certificate = coatom_ordering(poset) if pure and cond2 and cond3 else None
    if certificate is None and pure:
        data = poset.order_complex(drop_bottom=True)
        dimension = max(map(len, data.facets)) - 1
        shell = find_shelling(data)
        certificate = shell.order

    if certificate is not None and cond2 and cond3:
        if not hom_trivial:
            raise RuntimeError(
                "shelling + incidence conditions certified a ball, yet reduced "
                "homology is nontrivial (internal inconsistency)"
            )
        verdict, detail = "ball-certified", "shelling found; ridge conditions hold"
    elif not pure:
        verdict, detail = "refuted", "order complex is not pure"
    elif not cond2:
        verdict, detail = "refuted", "a ridge lies in more than two top cells"
    elif not hom_trivial:
        verdict, detail = "refuted", "reduced homology is nontrivial"
    elif shell.order is None and shell.exhaustive and dimension <= 2:
        verdict, detail = "refuted", "exhaustive search: the order complex is not shellable"
    elif shell.order is not None and not cond3:
        verdict, detail = "refuted", "shellable without a free ridge (no boundary)"
    else:  # no shelling found, by a search cut off or above dimension 2
        verdict = "inconclusive"
        detail = (f"no shelling, which refutes no ball in dimension {dimension}"
                  if shell.exhaustive else "shelling search exceeded its budget")
    return BallVerdict(certificate, cond2, cond3, hom_trivial, verdict, detail)
