"""EL-labelings on dual cell posets, shelling search, CW certification, and
the three-condition closed-ball check.

The edge labeling on the dual poset assigns 0 to the top covers into the
least element, -i to a plain index removal, and +i to a removal that also
shifts the generator.  An interval passes EL verification when it has exactly
one weakly increasing maximal chain and that chain is strictly lex-least.
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
    "BallVerdict",
    "ShellingResult",
    "el_label_edge",
    "label_chain",
    "verify_el_interval",
    "verify_el_all",
    "u_of_chain",
    "is_cw_poset",
    "find_shelling",
    "verify_shelling_order",
    "ball_check",
]


@dataclass
class ELReport:
    bottom: object
    top: object
    max_chains: int
    increasing_chains: int
    lex_least: bool
    passed: bool
    increasing_chain: object = None
    increasing_label: object = None
    labels: list = None  # label tuple of each maximal chain, in chain order


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


def label_chain(kind: str, chain, ideal) -> tuple:
    return tuple(
        el_label_edge(kind, a, b, ideal) for a, b in zip(chain, chain[1:])
    )


def verify_el_interval(kind: str, dual: FinitePoset, a, b, ideal) -> ELReport:
    """EL verification of the interval [a, b] of the dual poset."""
    chains = dual.chains_between(a, b)
    labels = [label_chain(kind, c, ideal) for c in chains]
    rising = [(lab, c) for lab, c in zip(labels, chains)
              if all(x <= y for x, y in zip(lab, lab[1:]))]
    return _el_report(a, b, labels, rising)


def verify_el_all(kind: str, dual: FinitePoset, ideal) -> list:
    """EL reports for every nontrivial interval [a, b] of the dual poset, a in
    element order and b in ``up_set(a)`` order.  Each cover is labelled once;
    one pre-order walk up the covers from each a yields every maximal chain of
    every [a, b], in ``chains_between`` order, with its label tuple."""
    els, up = dual.elements, dual._up  # by index, so that no element is hashed
    label = [[el_label_edge(kind, els[i], els[j], ideal) for j in ups] for i, ups in enumerate(up)]
    out = []
    for a in range(len(els)):
        labels, rising, path = {}, {}, []
        stack = [(a, (), True)]  # (index, label tuple of its path, weakly increasing)
        while stack:
            i, word, inc = stack.pop()
            del path[len(word):]
            path.append(i)
            if word:
                labels.setdefault(i, []).append(word)
                if inc:
                    rising.setdefault(i, []).append((word, tuple(els[k] for k in path)))
            for j, lab in zip(reversed(up[i]), reversed(label[i])):
                stack.append((j, word + (lab,), inc and (not word or word[-1] <= lab)))
        # the ends of nonempty paths from a are exactly up_set(a) minus a
        out.extend(_el_report(els[a], els[b], labels[b], rising.get(b, []))
                   for b in sorted(labels))
    return out


def _el_report(a, b, labels, rising) -> ELReport:
    """The report of [a, b] from its chains' labels and its increasing (label, chain)s."""
    lex_least, chain0, label0 = False, None, None
    if len(rising) == 1:
        # label0 occurs once: a chain with an equal label would be increasing
        [(label0, chain0)] = rising
        lex_least = all(label0 < lab for lab in labels if lab != label0)
    passed = len(rising) == 1 and lex_least
    return ELReport(a, b, len(labels), len(rising), lex_least, passed, chain0, label0, labels)


def u_of_chain(kind: str, chain, ideal):
    """The monomial of the positive labels along an increasing chain: the
    product of the variables the start attaches to them.

    The result is checked against lcm(lift(start), lift(end)) / lift(start)
    and a mismatch raises.
    """
    if len(chain) < 1 or chain[-1] is BOTTOM:
        raise ValueError("chain must stay below the least dual element")
    labels = label_chain(kind, chain, ideal)
    if any(x > y for x, y in zip(labels, labels[1:])):
        raise ValueError("chain is not increasing")
    rules = kind_of(kind)
    squares = rules.ring(ideal)
    return _positive_part(rules, squares, chain, labels,
                          rules.lift(chain[0].m, squares), rules.lift(chain[-1].m, squares))


def _positive_part(rules, squares, chain, labels, lift, end_lift):
    """``u_of_chain`` from the kind's ring, the chain's labels and the lifts
    of its ends."""
    lcm = lift.lcm(end_lift)
    u = prod((rules.variable(chain[0].m, i, squares) for i in labels if i > 0), start=lift)
    if u != lcm:
        raise RuntimeError(
            f"positive-label monomial {square_str(u.div(lift), squares)} differs from "
            f"lcm quotient {square_str(lcm.div(lift), squares)} on chain {chain!r}"
        )
    return u.div(lift)


def is_cw_poset(poset: FinitePoset, kind: str, ideal):
    """Certify that a poset is the face poset of a regular CW complex.

    Checks: thin, at least two elements, a least element, and shellability of
    every lower interval, certified through EL verification of all intervals
    of the dual poset (with brute-force shelling of the lower intervals as a
    fallback).  Returns (bool, witness dict).
    """
    witness = {"thin": poset.is_thin(), "size": len(poset)}
    mins = poset.minimal_elements()
    witness["bounded_below"] = len(mins) == 1
    if not (witness["thin"] and witness["bounded_below"] and len(poset) >= 2):
        witness["el_intervals"] = None
        return False, witness
    dual = poset.dual()
    reports = verify_el_all(kind, dual, ideal)
    failures = [r for r in reports if not r.passed]
    witness["el_intervals"] = len(reports)
    witness["el_failures"] = len(failures)
    if not failures:
        return True, witness
    # EL certification failed somewhere; fall back to direct shelling of the
    # lower intervals (sufficient for Bjorner's criterion).
    bottom = mins[0]
    for e in poset.elements:
        if e is bottom:
            continue
        data = poset.interval(bottom, e).order_complex()
        res = find_shelling(data)
        if res.order is None:
            witness["unshellable_interval"] = (bottom, e, res.exhaustive)
            return False, witness
    witness["fallback"] = "direct shelling of all lower intervals"
    return True, witness


def find_shelling(data: SimplicialComplexData, node_budget: int = 500_000) -> ShellingResult:
    """Search for a shelling order of a pure complex.

    The search backtracks over facet orders, memoized over facet subsets, and
    visits at most ``node_budget`` nodes.  A None result from a search that
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
    if nodes > node_budget:
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
        if nodes > node_budget:
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


def ball_check(
    poset: FinitePoset, cplx: FreeComplex, ideal, node_budget: int = 500_000, cw_result=None
) -> BallVerdict:
    """Evaluate the closed-ball criteria on the cell poset of the resolution
    ``cplx`` (of kind ``cplx.kind``) minus its least element.

    Certification requires a verified shelling order of the order complex
    (constructibility witness) plus the two ridge-incidence conditions.
    Refutation requires a definite obstruction: a ridge in more than two top
    cells, nontrivial reduced homology, a non-pure complex, or an exhaustive
    shelling search that proves unshellability.  A shelling search that runs
    out of its ``node_budget`` is inconclusive, as is everything else.
    ``cw_result`` reuses an ``is_cw_poset`` result the caller already has.

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
    incidences = topology.ridge_incidences(poset)
    cond2 = all(c <= 2 for _, c in incidences)
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
        shell = find_shelling(poset.order_complex(drop_bottom=True), node_budget)
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
    elif shell.order is None and shell.exhaustive:
        verdict, detail = "refuted", "exhaustive search: the order complex is not shellable"
    elif shell.order is not None and not cond3:
        verdict, detail = "refuted", "shellable without a free ridge (no boundary)"
    else:
        verdict, detail = "inconclusive", "shelling search exceeded its budget"
    return BallVerdict(shell.order, cond2, cond3, hom_trivial, verdict, detail)
