from itertools import combinations, combinations_with_replacement

import pytest

from ekcells import (
    BOTTOM, Monomial, MonomialIdeal, ball_check, build_gamma, cli, ek_complex, is_cw_poset,
    modified_complex, shelling,
)
from ekcells.ek import _b_indices, _shift_entry, kind_of
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


def ball(kind, J):
    """``ball_check`` on the cell poset of the kind's resolution of J."""
    cplx = resolution(kind, J)
    poset = build_gamma(cplx)
    return ball_check(poset, cplx, is_cw_poset(poset, J))


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
