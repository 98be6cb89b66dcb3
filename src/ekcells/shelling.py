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

from .ek import kind_of
from .posets import BOTTOM, FinitePoset, SimplicialComplexData
from .topology import reduced_homology_trivial, ridge_incidences

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


def el_label_edge(kind: str, lower, upper, ideal=None) -> int:
    """Label of a cover ``lower <* upper`` of the dual basis poset.

    ``kind`` is "ek" or "modified".  With an ideal supplied, the
    shifted-generator case is verified against the kind's shift rule.
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
    if ideal is not None and upper.m != rules.shift(ideal, lower.m, i):
        raise ValueError(f"cover ({lower!r}, {upper!r}) matches neither labeling case")
    return i


def label_chain(kind: str, chain, ideal=None) -> tuple:
    return tuple(
        el_label_edge(kind, a, b, ideal) for a, b in zip(chain, chain[1:])
    )


def verify_el_interval(kind: str, dual: FinitePoset, a, b, ideal=None) -> ELReport:
    """EL verification of the interval [a, b] of the dual poset."""
    chains = dual.chains_between(a, b)
    return _el_report(a, b, chains, [label_chain(kind, c, ideal) for c in chains])


def verify_el_all(kind: str, dual: FinitePoset, ideal=None) -> list:
    """EL reports for every nontrivial interval of the dual poset, each cover
    labelled once."""
    label = {(x, y): el_label_edge(kind, x, y, ideal) for x, y in dual.covers}
    out = []
    for a in dual.elements:
        for b in dual.up_set(a):
            if a != b:
                chains = dual.chains_between(a, b)
                labels = [tuple(label[e] for e in zip(c, c[1:])) for c in chains]
                out.append(_el_report(a, b, chains, labels))
    return out


def _el_report(a, b, chains, labels) -> ELReport:
    increasing = [
        lab for lab in labels if all(x <= y for x, y in zip(lab, lab[1:]))
    ]
    lex_least = False
    chain0 = label0 = None
    if len(increasing) == 1:
        label0 = increasing[0]
        chain0 = chains[labels.index(label0)]
        lex_least = all(label0 < lab for lab in labels if lab != label0) and labels.count(label0) == 1
    return ELReport(
        bottom=a,
        top=b,
        max_chains=len(chains),
        increasing_chains=len(increasing),
        lex_least=lex_least,
        passed=len(increasing) == 1 and lex_least,
        increasing_chain=chain0,
        increasing_label=label0,
        labels=labels,
    )


def u_of_chain(kind: str, chain, ideal=None):
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
    rules, start, end = kind_of(kind), chain[0], chain[-1]
    lift = rules.lift(start.m)
    lcm = lift.lcm(rules.lift(end.m))
    u = prod((rules.variable(start.m, i) for i in labels if i > 0), start=lift)
    if u != lcm:
        raise RuntimeError(
            f"positive-label monomial {u.div(lift)} differs from lcm quotient "
            f"{lcm.div(lift)} on chain {chain!r}"
        )
    return u.div(lift)


def is_cw_poset(poset: FinitePoset, kind: str, ideal=None):
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


def find_shelling(
    data: SimplicialComplexData, facet_budget: int = 20, node_budget: int = 500_000
) -> ShellingResult:
    """Search for a shelling order of a pure complex.

    Up to ``facet_budget`` facets the search is exhaustive (memoized over
    facet subsets), so a None result is a proof that no shelling exists.
    Beyond the budget the same backtracking runs under a node budget and a
    failure is reported as non-exhaustive.  Candidate order is lexicographic
    on sorted vertex lists throughout, so results are reproducible.
    """
    if not data.is_pure():
        raise ValueError("shelling search needs a pure complex")
    facets = sorted(data.facets, key=lambda f: tuple(sorted(f)))
    r = len(facets)
    if r == 1:
        return ShellingResult([0], True)
    masks = []
    for f in facets:
        m = 0
        for v in f:
            m |= 1 << v
        masks.append(m)

    exhaustive = r <= facet_budget
    budget = node_budget if not exhaustive else None
    nodes = 0
    dead = set()
    order = []

    def addable(s, used):
        cov = 0
        diffs = []
        for t in used:
            dmask = s & ~t
            diffs.append(dmask)
            if dmask.bit_count() == 1:
                cov |= dmask
        if not cov:
            return False
        return all(d & cov for d in diffs)

    class _Budget(Exception):
        pass

    def dfs(used_mask, used):
        nonlocal nodes
        if len(used) == r:
            return True
        if used_mask in dead:
            return False
        nodes += 1
        if budget is not None and nodes > budget:
            raise _Budget
        for idx in range(r):
            if used_mask >> idx & 1:
                continue
            if used and not addable(masks[idx], used):
                continue
            used.append(masks[idx])
            if dfs(used_mask | (1 << idx), used):
                order.append(idx)
                return True
            used.pop()
        dead.add(used_mask)
        return False

    try:
        found = dfs(0, [])
    except _Budget:
        return ShellingResult(None, False)
    if not found:
        return ShellingResult(None, exhaustive or nodes <= (budget or 0))
    order.reverse()
    assert verify_shelling_order(data, order)
    return ShellingResult(order, True)


def verify_shelling_order(data: SimplicialComplexData, order) -> bool:
    """Check the shelling condition for an explicit facet order (on the same
    canonical facet ordering used by find_shelling)."""
    facets = sorted(data.facets, key=lambda f: tuple(sorted(f)))
    if sorted(order) != list(range(len(facets))):
        return False
    size = len(facets[0])
    for pos in range(1, len(order)):
        s = facets[order[pos]]
        inters = [s & facets[order[k]] for k in range(pos)]
        ridges = [x for x in inters if len(x) == size - 1]
        if not ridges:
            return False
        if not all(any(x <= rho for rho in ridges) for x in inters):
            return False
    return True


def ball_check(
    poset: FinitePoset,
    kind: str,
    ideal=None,
    facet_budget: int = 20,
    node_budget: int = 500_000,
    cw_result=None,
) -> BallVerdict:
    """Evaluate the closed-ball criteria on the order complex of the poset
    minus its least element.

    Certification requires a verified shelling order (constructibility
    witness) plus the two ridge-incidence conditions.  Refutation requires a
    definite obstruction: a ridge in more than two top cells, nontrivial
    reduced homology, a non-pure complex, or an exhaustive shelling search
    that proves unshellability.  Everything else is inconclusive.
    """
    if cw_result is None:
        cw_result = is_cw_poset(poset, kind, ideal)
    cw_ok, _ = cw_result
    incidences = ridge_incidences(poset)
    cond2 = all(c <= 2 for _, c in incidences)
    cond3 = any(c == 1 for _, c in incidences)
    data = poset.order_complex(drop_bottom=True)
    hom_trivial = reduced_homology_trivial(data)
    if not cw_ok:
        return BallVerdict(None, cond2, cond3, hom_trivial, "inconclusive",
                           "poset not certified as CW")
    pure = poset.is_pure()
    if pure:
        shell = find_shelling(data, facet_budget, node_budget)
    else:
        shell = ShellingResult(None, True)

    if shell.order is not None and cond2 and cond3:
        if not hom_trivial:
            raise RuntimeError(
                "shelling + incidence conditions certified a ball, yet reduced "
                "homology is nontrivial (internal inconsistency)"
            )
        return BallVerdict(shell.order, cond2, cond3, hom_trivial,
                           "ball-certified", "shelling found; ridge conditions hold")
    if not pure:
        return BallVerdict(None, cond2, cond3, hom_trivial, "refuted",
                           "order complex is not pure")
    if not cond2:
        return BallVerdict(shell.order, cond2, cond3, hom_trivial, "refuted",
                           "a ridge lies in more than two top cells")
    if not hom_trivial:
        return BallVerdict(shell.order, cond2, cond3, hom_trivial, "refuted",
                           "reduced homology is nontrivial")
    if shell.order is None and shell.exhaustive:
        return BallVerdict(None, cond2, cond3, hom_trivial, "refuted",
                           "exhaustive search: the order complex is not shellable")
    if shell.order is not None and not cond3:
        return BallVerdict(shell.order, cond2, cond3, hom_trivial, "refuted",
                           "shellable without a free ridge (no boundary)")
    return BallVerdict(shell.order, cond2, cond3, hom_trivial, "inconclusive",
                       "shelling search exceeded its budget")
