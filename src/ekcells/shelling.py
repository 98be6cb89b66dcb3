"""EL-labelings on dual cell posets, shelling search, CW certification, and
the three-condition closed-ball check.

The edge labeling on the dual poset assigns 0 to the top covers into the
least element, -i to a plain index removal, and +i to a removal that also
shifts the generator.  An interval passes EL verification when it has exactly
one weakly increasing maximal chain and that chain is strictly lex-least
(Bjorner-Wachs, "On lexicographically shellable posets", Trans. AMS 277, 1983).

``verify_el_all`` counts chains instead of listing them.  For x < b, let y
run over the covers of x below b, and l(y) be the label of x <* y:

* chains[x, b] = sum_y chains[y, b], with chains[b, b] = 1;
* rising[x, b][l] = the sum, over the y with l(y) = l, of the weakly
  increasing chains of [y, b] whose first label is >= l (the one chain of
  [b, b] counts): the weakly increasing chains of [x, b], by first label;
* lex[x, b] = (word, chain, ok): word is the least of the words l(y)
  followed by the word of [y, b], chain carries it, and ok says that word is
  weakly increasing: ok holds for [y, b] and l(y) is at most the first label
  of its word.  Every chain that carries an increasing word increases, so
  where [x, b] has one increasing chain, an increasing least word is unique.

Each x merges these records of its covers, so the sweep is one pass over the
pairs x <= b, in reverse topological order, and lists no chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import topology
from .complexes import FreeComplex
from .ek import kind_of
from .monomials import square_str
from .posets import BOTTOM, FinitePoset, SimplicialComplexData

__all__ = [
    "ELReport",
    "ELSweep",
    "BallVerdict",
    "ShellingResult",
    "el_label_edge",
    "verify_el_all",
    "is_cw_poset",
    "find_shelling",
    "verify_shelling_order",
    "ball_check",
]

# above every label: the first label of the empty word of [b, b]
_TOP = 1 << 60

# nodes a shelling search visits before it gives up, inconclusive
NODE_BUDGET = 500_000


@dataclass(slots=True)
class ELReport:
    bottom: object
    top: object
    max_chains: int
    increasing_chains: int
    lex_least: bool
    passed: bool
    increasing_chain: object = None
    increasing_label: object = None


class ELSweep(list):
    """The reports of ``verify_el_all``, with the cover labels they came from:
    ``cover_labels[i][k]`` labels the cover from element i to ``dual._up[i][k]``."""

    __slots__ = ("cover_labels",)


@dataclass
class ShellingResult:
    order: object       # list of facet indices, or None
    exhaustive: bool    # when order is None: search space fully explored


@dataclass
class BallVerdict:
    constructible_certificate: object  # shelling order or None
    cond2: bool                        # every ridge in at most two facets
    cond3: bool                        # some ridge in exactly one facet
    homology_trivial: bool
    verdict: str                       # "ball-certified" | "refuted" | "inconclusive"
    detail: str = ""


def el_label_edge(kind: str, lower, upper, ideal) -> int:
    """Label of a cover ``lower <* upper`` of the dual basis poset.

    ``kind`` is "ek" or "modified".  The shifted-generator case is verified
    against the kind's shift rule on ``ideal``.
    """
    rules = kind_of(kind)
    if upper is BOTTOM:
        if lower.F != ():
            raise ValueError(f"{lower!r} is not covered by the least element in the dual")
        return 0
    removed = set(lower.F) - set(upper.F)
    if len(removed) != 1 or not set(upper.F) <= set(lower.F):
        raise ValueError(f"({lower!r}, {upper!r}) is not a dual cover")
    i = removed.pop()
    if upper.m == lower.m:
        return -i
    if upper.m != rules.shift(ideal, lower.m, i):
        raise ValueError(f"cover ({lower!r}, {upper!r}) matches neither labeling case")
    return i


def verify_el_all(kind: str, dual: FinitePoset, ideal) -> ELSweep:
    """EL reports for every nontrivial interval [a, b] of the dual poset, a and
    then b in element order.

    Each cover is labelled once.  Then each x, in reverse topological order,
    merges the records of [y, b] of its covers y into those of [x, b], by the
    recurrences of the module docstring, taking the covers in increasing label
    order, so that a cover of greater label than the kept word's first is
    passed over and only covers of a tied label compare their words.  [a, b]
    passes when it has exactly one increasing chain and its lex-least word is
    increasing: that chain then carries the word, which no other chain does,
    and the records keep it.  Where the one increasing chain is not
    lex-least, it is read off by following the covers that keep the chain
    increasing.
    """
    els, up = dual.elements, dual._up  # by index, so that no element is hashed
    label = [[el_label_edge(kind, els[i], els[j], ideal) for j in ups] for i, ups in enumerate(up)]
    n = len(els)
    # per x and b >= x: chains[x][b] counts the maximal chains of [x, b];
    # rising[x][b] is the first label of its one increasing chain, or
    # {first label: count} when it has more, and missing when it has none
    # (a dict for every pair costs 40-80% more sweep time); lex[x][b] is
    # (word, chain, ok): its lex-least word, a chain that carries it, and
    # whether that word is weakly increasing.  [x, x] has one chain, whose
    # empty word counts as starting with _TOP.
    chains, rising, lex = [None] * n, [None] * n, [None] * n
    for x in reversed(dual._order):
        ex = els[x]
        cx, rx, ox = {x: 1}, {x: _TOP}, {x: ((), (ex,), True)}
        for lab, y in sorted(zip(label[x], up[x])):
            ry, oy = rising[y], lex[y]
            for b, c in chains[y].items():
                cx[b] = cx.get(b, 0) + c
                r = ry.get(b)
                if r is not None:
                    k = lab <= r if r.__class__ is int else _rising_from(r, lab)
                    if k:
                        old = rx.get(b)
                        rx[b] = lab if old is None and k == 1 else _merge(old, lab, k)
                o = ox.get(b)
                if o is not None and o[0][0] < lab:
                    continue  # an earlier cover of lesser label starts the least word
                word, chain, ok = oy[b]
                word = (lab,) + word
                if o is None or word < o[0]:
                    ox[b] = (word, (ex,) + chain, ok and (len(word) == 1 or lab <= word[1]))
        chains[x], rising[x], lex[x] = cx, rx, ox
    out = ELSweep()
    out.cover_labels = label
    for a in range(n):
        ea, ca, ra, oa = els[a], chains[a], rising[a], lex[a]
        for b in sorted(ca):
            if b == a:
                continue
            r = ra.get(b)
            rises = 0 if r is None else 1 if r.__class__ is int else sum(r.values())
            if rises != 1:
                out.append(ELReport(ea, els[b], ca[b], rises, False, False))
                continue
            word, chain, ok = oa[b]
            if not ok:
                path, word = _rising_chain(a, b, up, label, chains, rising)
                chain = tuple(els[k] for k in path)
            out.append(ELReport(ea, els[b], ca[b], 1, ok, ok, chain, word))
    return out


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


def _rising_chain(a, b, up, label, chains, rising):
    """The one increasing chain of [a, b], by index, and its word: from each u
    on it, the cover z below b whose label continues the chain and that
    starts an increasing chain of [z, b]."""
    path, word, u, low = [a], [], a, -_TOP
    while u != b:
        for z, lab in zip(up[u], label[u]):
            if lab >= low and b in chains[z] and _rising_from(rising[z].get(b), lab):
                break
        path.append(z)
        word.append(lab)
        u, low = z, lab
    return path, tuple(word)


def _positive_part(variables, squares, chain, labels, lift, end_lift):
    """The monomial of the positive labels along an increasing chain: the
    product of the variables its start attaches to them (``variables``, its
    generator's list from ``ek._attached``), from the kind's ring, the
    chain's labels and the lifts of its ends.

    The result is checked against lcm(lift(start), lift(end)) / lift(start)
    and a mismatch raises, as does a label that names no index of the start.
    """
    if max(labels) >= len(variables):
        raise RuntimeError(f"label {max(labels)} names no index of {chain[0]!r}")
    lcm = lift.lcm(end_lift)
    u = prod((variables[i] for i in labels if i > 0), start=lift)
    if u != lcm:
        raise RuntimeError(
            f"positive-label monomial {square_str(u.div(lift), squares)} differs from "
            f"lcm quotient {square_str(lcm.div(lift), squares)} on chain {chain!r}"
        )
    return u.div(lift)


def is_cw_poset(poset: FinitePoset, kind: str, ideal):
    """Certify that a poset is the face poset of a regular CW complex.

    The poset is certified CW exactly when it is thin, has at least two
    elements and a least element, and every interval of its dual passes
    ``verify_el_all``: EL-shellability of the dual intervals shells every
    lower interval, which is Bjorner's CW-poset criterion (Europ. J. Combin.
    5, 1984).  No shelling search runs, so an EL failure reads as not CW.
    Returns (bool, witness dict); when the sweep fails, ``el_first_failure``
    names the first failing dual interval (a, b).
    """
    witness = {"thin": poset.is_thin()}
    witness["bounded_below"] = len(poset.minimal_elements()) == 1
    if not (witness["thin"] and witness["bounded_below"] and len(poset) >= 2):
        witness["el_intervals"] = None
        return False, witness
    reports = verify_el_all(kind, poset.dual(), ideal)
    failures = [r for r in reports if not r.passed]
    witness["el_intervals"] = len(reports)
    witness["el_failures"] = len(failures)
    if failures:
        witness["el_first_failure"] = (failures[0].bottom, failures[0].top)
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


def ball_check(poset: FinitePoset, cplx: FreeComplex, ideal, cw_result=None) -> BallVerdict:
    """Evaluate the closed-ball criteria on the cell poset of the resolution
    ``cplx`` (of kind ``cplx.kind``) minus its least element.

    Certification requires a verified shelling order of the order complex
    (constructibility witness) plus the two ridge-incidence conditions.
    Refutation requires a definite obstruction: a ridge in more than two top
    cells, nontrivial reduced homology, a non-pure complex, or an exhaustive
    shelling search that proves unshellability in dimension <= 2, where every
    triangulated ball is shellable (unshellable 3-balls exist: Rudin, 1958).
    Any other failed search is inconclusive, as is everything else.
    ``cw_result`` reuses an ``is_cw_poset`` result the caller already has.
    Certified CW means EL-certified: a poset whose EL sweep fails is not CW
    (``"cw": false`` in ``verify``), and its verdict is inconclusive.

    The reduced homology is read off the augmented frame of ``cplx``.  A
    poset certified CW is the face poset of a regular CW complex X; the frame
    has entries +-1 exactly on its covers and d o d = 0, and any two incidence
    functions of X differ only by orientation signs (Lundell-Weingram, *The
    Topology of CW Complexes*, 1969, Ch. V).  So the frame is isomorphic to
    X's reduced cellular chain complex, whose homology is the order complex's.
    """
    if cw_result is None:
        cw_result = is_cw_poset(poset, cplx.kind, ideal)
    cw_ok, _ = cw_result
    # ridges are counted by rank above a least element, which a poset that
    # is not CW may lack; then neither ridge condition holds
    countable = poset.ranks() is not None and len(poset.minimal_elements()) == 1
    incidences = topology.ridge_incidences(poset) if countable else ()
    cond2 = countable and all(c <= 2 for _, c in incidences)
    cond3 = any(c == 1 for _, c in incidences)
    # through the module, so that a wrapper on topology.homology_ranks sees it
    hom_trivial = all(
        betti == 0 and not torsion
        for betti, torsion in topology.homology_ranks(topology.frame_complex(cplx))
    )
    if not cw_ok:
        return BallVerdict(None, cond2, cond3, hom_trivial, "inconclusive",
                           "poset not certified as CW")
    pure = poset.is_pure()
    if pure:
        data = poset.order_complex(drop_bottom=True)
        dimension = max(map(len, data.facets)) - 1
        shell = find_shelling(data)
    else:
        shell = ShellingResult(None, True)

    if shell.order is not None and cond2 and cond3:
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
    return BallVerdict(shell.order, cond2, cond3, hom_trivial, verdict, detail)
