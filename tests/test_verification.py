import random

import pytest

from ekcells import Monomial, ek_complex, modified_complex, random_borel_ideal, shelling
from ekcells.verification import (
    VerificationError,
    check_cover_support,
    check_d2,
    check_g_properties,
    check_intervals,
    check_minimality,
    check_shift_instances,
    cm_battery,
    full_battery,
)
from ekcells.posets import build_gamma
from conftest import ideal


class TestBatteries:
    def test_named_ideals_pass(self, deg2, tri_tri, tri_sq, deg4, intro):
        for J in (deg2, tri_tri, tri_sq, deg4, intro):
            full_battery(J)

    def test_cm_battery_on_degree2(self, deg2):
        stats = cm_battery(deg2)
        assert stats["h"] == 3 and stats["l"] == 2

    def test_cm_battery_rejects_non_cm(self, tri_tri):
        with pytest.raises(VerificationError, match="not Cohen-Macaulay"):
            cm_battery(tri_tri)

    def test_battery_rejects_non_borel(self):
        J = ideal(3, "x1^2", "x1*x2", "x2^2", "x2*x3")
        with pytest.raises(VerificationError, match="not Borel"):
            full_battery(J)

    def test_random_sample(self):
        rng = random.Random(97)
        for _ in range(5):
            full_battery(random_borel_ideal(rng, max_gens=8))

    def test_messages_built_only_on_failure(self, deg2, monkeypatch):
        calls = []
        original = Monomial.__str__
        monkeypatch.setattr(Monomial, "__str__", lambda m: calls.append(m) or original(m))
        full_battery(deg2)
        assert calls == []

    def test_one_el_sweep_per_kind(self, deg2, chains_between_calls):
        stats = full_battery(deg2)
        assert len(chains_between_calls) == stats["intervals_ek"] + stats["intervals_modified"]


class TestMutationDetection:
    """Deliberate corruptions must be caught by the checkers."""

    def test_sign_flip_breaks_d2(self, deg2):
        cplx = ek_complex(deg2)
        pos, (sign, coeff) = next(iter(sorted(cplx.diffs[1].items())))
        cplx.diffs[1][pos] = (-sign, coeff)
        with pytest.raises(VerificationError, match="d\\^2"):
            check_d2(cplx)

    def test_unit_coefficient_detected(self, intro):
        from ekcells.monomials import BiMonomial

        cplx = modified_complex(intro)
        pos = next(iter(sorted(cplx.diffs[0])))
        sign, _ = cplx.diffs[0][pos]
        cplx.diffs[0][pos] = (sign, BiMonomial.unit())
        with pytest.raises(VerificationError, match="unit"):
            check_minimality(cplx)

    def test_repeated_label_detected(self, deg2, monkeypatch):
        # Shifted removals relabelled as plain ones: the two maximal chains of
        # [e({1};x1*x2), 0hat] in the classical dual then both read (-1, 0).
        original = shelling.el_label_edge
        monkeypatch.setattr(shelling, "el_label_edge", lambda *args: -abs(original(*args)))
        with pytest.raises(VerificationError, match="label tuples repeat"):
            full_battery(deg2)

    def test_missing_cover_detected(self, intro):
        cplx = modified_complex(intro)
        poset = build_gamma("modified", intro)
        pos = next(iter(sorted(cplx.diffs[0])))
        del cplx.diffs[0][pos]
        with pytest.raises(VerificationError, match="covers"):
            check_cover_support(poset, cplx)


class TestPropertyChecks:
    def test_g_properties(self, deg2, intro):
        check_g_properties(deg2)
        check_g_properties(intro)

    def test_shift_instances(self, deg2, deg4):
        check_shift_instances(deg2)
        check_shift_instances(deg4)

    def test_interval_sweep_counts(self, intro):
        dual = build_gamma("ek", intro).dual()
        assert check_intervals("ek", dual, intro) == 9
