import random
import zlib
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from ekcells import (
    BOTTOM, Monomial, MonomialIdeal, ball_check, build_gamma, cli, ek_complex, is_cw_poset,
    modified_complex, random_borel_ideal, shelling,
)
from ekcells.ek import _b_indices, _shift_entry, kind_of
from ekcells.monomials import square_str
from ekcells.suite import named_ideal


def mono(text, n):
    return Monomial.parse(text, n)


def ideal(n, *gens):
    return MonomialIdeal(n, [Monomial.parse(g, n) for g in gens])


def power_ideal(n, d):
    """(x1..xn)^d."""
    return ideal(n, *(
        "*".join(f"x{i}" for i in combo)
        for combo in combinations_with_replacement(range(1, n + 1), d)
    ))


def stable_closure(seeds):
    """The smallest stable ideal containing the seeds: closed under the
    stable moves m / x_max(m) * x_i, i < max(m)."""
    seen, frontier = set(seeds), list(seeds)
    while frontier:
        m = frontier.pop()
        j = m.max_var()
        for i in range(1, j):
            moved = m.div_var(j).times_var(i)
            if moved not in seen:
                seen.add(moved)
                frontier.append(moved)
    return MonomialIdeal(seeds[0].n, seen)


def stable_closures():
    """The stable closures of at most two seeds of degree <= 3 in three
    variables, as a set."""
    seeds = [Monomial.parse("*".join(f"x{i}" for i in c), 3)
             for d in (1, 2, 3) for c in combinations_with_replacement((1, 2, 3), d)]
    return {stable_closure(list(s)) for k in (1, 2) for s in combinations(seeds, k)}


def b_set(J, F, m, kind="ek"):
    """B(F, m) of the kind, read off the shift entries of (m, i), i in F, as a
    build reads it."""
    rules = kind_of(kind)
    return _b_indices(F, {i: _shift_entry(rules, J, m, i) for i in F})


def resolution(kind, J):
    """The classical ("ek") or modified resolution of the ideal J."""
    return ek_complex(J) if kind == "ek" else modified_complex(J)


def gamma(kind, J):
    """The cell poset of the kind's resolution of J."""
    return build_gamma(resolution(kind, J))


def interval(p, a, b):
    """The elements of the closed interval [a, b] of the poset p, in the
    order of its elements; empty unless a <= b."""
    mask = p._above[p.index(a)] & p._below[p.index(b)]
    return tuple(e for k, e in enumerate(p.elements) if mask >> k & 1)


def criterion_draws(number):
    """The random ideals of acceptance criterion 6 (200 Borel fixed ideals)
    or 7 (50 Cohen-Macaulay Borel fixed ideals), in the order drawn."""
    if number == 6:
        rng = random.Random(20260810)
        return [random_borel_ideal(rng) for _ in range(200)]
    rng = random.Random(20260811)
    return [random_borel_ideal(rng, cm=True) for _ in range(50)]


def ball(kind, J):
    """``ball_check`` on the cell poset of the kind's resolution of J."""
    cplx = resolution(kind, J)
    poset = build_gamma(cplx)
    return ball_check(poset, cplx, is_cw_poset(poset, J))


@dataclass(slots=True)
class ELReport:
    """What an EL sweep says of one interval [bottom, top] of a dual poset."""

    bottom: object
    top: object
    max_chains: int
    increasing_chains: int
    lex_least: bool
    passed: bool
    increasing_chain: object = None
    increasing_label: object = None


def el_reports(sweep):
    """The report of every interval of ``shelling.verify_el_all``'s result
    ``sweep``, built from its records, a and then b in element order.  The
    maximal chains of every pair are counted in one pass in reverse
    topological order, and each one increasing chain is walked from the
    records (``shelling._rising_chain``)."""
    dual = sweep.dual
    els, up, label = dual.elements, dual._up, sweep.cover_labels
    rising, lex, failing = sweep.rising, sweep.lex, set(sweep.failing)
    chains = [None] * len(els)
    for x in reversed(dual._order):
        cx = {x: 1}
        for y in up[x]:
            for b, c in chains[y].items():
                cx[b] = cx.get(b, 0) + c
        chains[x] = cx
    out = []
    for a, ca in enumerate(chains):
        ea, ra = els[a], rising[a]
        for b in sorted(ca):
            if b == a:
                continue
            r = ra.get(b)
            if r.__class__ is int:  # one increasing chain, lex-least where [a, b] passes
                path, word = shelling._rising_chain(a, b, up, label, lex, rising)
                chain = tuple(els[k] for k in path)
                passed = (a, b) not in failing
                out.append(ELReport(ea, els[b], ca[b], 1, passed, passed, chain, word))
            else:  # no increasing chain, or several
                rises = 0 if r is None else sum(r.values())
                out.append(ELReport(ea, els[b], ca[b], rises, False, False))
    return out


def positive_part(variables, squares, chain, labels, lift, end_lift):
    """The monomial of the positive labels along an increasing chain, by
    ``Monomial`` arithmetic: the product of the variables its start attaches
    to them (``variables``, its generator's list from ``ek._attached``), the
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


def relabelling(name):
    """Cover labels that break EL, to stand in for ``shelling.el_label_edge``:
    pseudo-random in {-1, 0, 1}, all 0, or the true labels made nonpositive."""
    original = shelling.el_label_edge
    return {
        "pseudo-random": lambda x, y, J: zlib.crc32(repr((x, y)).encode()) % 3 - 1,
        "constant": lambda *args: 0,
        "unsigned": lambda *args: -abs(original(*args)),
    }[name]


@pytest.fixture
def el_sweeps(monkeypatch):
    """Records the kind of the swept cells and the report count of every EL
    sweep, under both names it is called by (``shelling.verify_el_all`` and
    ``cli.verify_el_all``)."""
    sweeps = []
    original = shelling.verify_el_all

    def recorded(dual, ideal):
        reports = original(dual, ideal)
        kind = next(el.kind.name for el in dual.elements if el is not BOTTOM)
        sweeps.append((kind, len(reports)))
        return reports

    monkeypatch.setattr(shelling, "verify_el_all", recorded)
    monkeypatch.setattr(cli, "verify_el_all", recorded)
    return sweeps


@pytest.fixture
def deg2():
    return named_ideal("deg2")


@pytest.fixture
def tri_tri():
    return named_ideal("tri-tri")


@pytest.fixture
def tri_sq():
    return named_ideal("tri-sq")


@pytest.fixture
def deg4():
    return named_ideal("deg4")


@pytest.fixture
def intro():
    return named_ideal("intro")
