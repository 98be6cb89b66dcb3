import pytest

from ekcells import FinitePoset, Monomial, MonomialIdeal
from ekcells.suite import named_ideal


def mono(text, n):
    return Monomial.parse(text, n)


def ideal(n, *gens):
    return MonomialIdeal(n, [Monomial.parse(g, n) for g in gens])


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
