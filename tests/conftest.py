import pytest

from ekcells import (
    FinitePoset, Monomial, MonomialIdeal, ball_check, build_gamma, ek_complex, modified_complex,
)
from ekcells.suite import named_ideal


def mono(text, n):
    return Monomial.parse(text, n)


def ideal(n, *gens):
    return MonomialIdeal(n, [Monomial.parse(g, n) for g in gens])


def resolution(kind, J):
    """The classical ("ek") or modified resolution of the ideal J."""
    return ek_complex(J) if kind == "ek" else modified_complex(J)


def gamma(kind, J):
    """The cell poset of the kind's resolution of J."""
    return build_gamma(resolution(kind, J))


def ball(kind, J, **kwargs):
    """``ball_check`` on the cell poset of the kind's resolution of J."""
    cplx = resolution(kind, J)
    return ball_check(build_gamma(cplx), cplx, J, **kwargs)


@pytest.fixture
def chains_between_calls(monkeypatch):
    """Records the (a, b) of every FinitePoset.chains_between call."""
    calls = []
    original = FinitePoset.chains_between

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(FinitePoset, "chains_between", counted)
    return calls


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
