import random
import re
import sys
from operator import add

import pytest

from ekcells import (
    AdmissiblePair, FreeComplex, Monomial, MonomialIdeal, ek_complex, frame_complex,
    modified_complex, random_borel_ideal, shelling, verification,
)
from ekcells.ek import Kind, _attached, kind_of
from ekcells.monomials import from_squares, square_str
from ekcells.polarization import specialize_theta, specialize_theta_prime
from ekcells.verification import (
    VerificationError,
    _exponents_up_to,
    check_cm_generator_exchanges,
    check_cover_support,
    check_d2,
    check_frame_invariance,
    check_g_properties,
    check_interval_decomposition,
    check_intervals,
    check_minimality,
    check_multidegrees,
    check_shift_instances,
    cm_battery,
    full_battery,
)
from ekcells.posets import BOTTOM, FinitePoset, build_gamma
from ekcells.suite import NAMED_IDEALS, named_ideal
from conftest import (
    criterion_draws, el_reports, gamma, ideal, interval, mono, positive_part, power_ideal,
    relabelling, resolution,
)


def product_lookups(J):
    """The distinct products m * g(n) and m * n that ``check_g_properties``
    looks up in g, keyed by exponent tuple, in the order of their first
    lookup: m of degree <= 2, n a member of degree <= max_deg + 1."""
    members = [e for e in _exponents_up_to(J.n, J.max_deg() + 1) if Monomial._of(e) in J]
    seen = {}
    for me in _exponents_up_to(J.n, 2):
        for ne in members:
            ge = J.g(Monomial._of(ne)).exps
            seen.setdefault(tuple(map(add, me, ge)), None)
            seen.setdefault(tuple(map(add, me, ne)), None)
    return members, list(seen)


def wide_field_ideals():
    """Ideals whose products fill the packed fields: (x1, x2)^6, and x1 with
    (x2, x3)^6, where x1 * x3 and x1 * x2^8 part only in a carry."""
    return [power_ideal(2, 6),
            MonomialIdeal(3, [mono("x1", 3)] + [Monomial((0, a, 6 - a)) for a in range(7)])]


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

    # the stable closures of at most three seeds of degree <= 4 in three
    # variables that are Cohen-Macaulay but not Borel fixed (14 of 430)
    STABLE_CM_NOT_BOREL = [
        ("x1^2", "x1*x2", "x1*x3^2", "x2^2", "x2*x3", "x3^3"),
        ("x1^2", "x1*x2", "x1*x3^2", "x2^2", "x2*x3", "x3^4"),
        ("x1^2", "x1*x2", "x1*x3^3", "x2^2", "x2*x3", "x3^4"),
        ("x1^2", "x1*x2", "x1*x3^3", "x2^2", "x2*x3^2", "x3^4"),
        ("x1^2", "x1*x2", "x1*x3^3", "x2^3", "x2^2*x3", "x2*x3^2", "x3^4"),
        ("x1^2", "x1*x2^2", "x1*x2*x3", "x1*x3^3", "x2^3", "x2^2*x3", "x2*x3^2", "x3^4"),
        ("x1^2", "x1*x2^2", "x1*x2*x3^2", "x1*x3^3", "x2^3", "x2^2*x3", "x2*x3^3", "x3^4"),
        ("x1^3", "x1^2*x2", "x1^2*x3", "x1*x2^2", "x1*x2*x3", "x1*x3^3", "x2^3", "x2^2*x3",
         "x2*x3^2", "x3^4"),
        ("x1^3", "x1^2*x2", "x1^2*x3", "x1*x2^2", "x1*x2*x3^2", "x1*x3^3", "x2^3", "x2^2*x3",
         "x2*x3^3", "x3^4"),
        ("x1^3", "x1^2*x2", "x1^2*x3^2", "x1*x2^2", "x1*x2*x3", "x1*x3^3", "x2^3", "x2^2*x3",
         "x2*x3^2", "x3^4"),
        ("x1^3", "x1^2*x2", "x1^2*x3^2", "x1*x2^2", "x1*x2*x3", "x1*x3^3", "x2^3", "x2^2*x3",
         "x2*x3^3", "x3^4"),
        ("x1^3", "x1^2*x2", "x1^2*x3^2", "x1*x2^2", "x1*x2*x3", "x1*x3^3", "x2^3", "x2^2*x3^2",
         "x2*x3^3", "x3^4"),
        ("x1^3", "x1^2*x2", "x1^2*x3^2", "x1*x2^2", "x1*x2*x3^2", "x1*x3^3", "x2^3", "x2^2*x3",
         "x2*x3^3", "x3^4"),
        ("x1^3", "x1^2*x2", "x1^2*x3^2", "x1*x2^2", "x1*x2*x3", "x1*x3^3", "x2^4", "x2^3*x3",
         "x2^2*x3^2", "x2*x3^3", "x3^4"),
    ]

    @pytest.mark.parametrize("gens", STABLE_CM_NOT_BOREL, ids=lambda gens: ",".join(gens))
    def test_cm_battery_certifies_the_classical_kind_of_a_stable_ideal(self, gens):
        J = ideal(3, *gens)
        assert J.is_stable() and not J.is_borel_fixed() and J.is_cm_stable()[0]
        stats = cm_battery(J)
        assert stats["facets_ek"] > 0 and "facets_modified" not in stats

    def test_battery_rejects_non_borel(self):
        J = ideal(3, "x1^2", "x1*x2", "x2^2", "x2*x3")
        with pytest.raises(VerificationError, match="not Borel"):
            full_battery(J)

    def test_random_sample(self):
        rng = random.Random(97)
        for _ in range(5):
            full_battery(random_borel_ideal(rng, max_gens=8))

    def test_cm_battery_builds_no_order_complex(self, deg2, monkeypatch):
        # the ball check certifies on the cells and the facets are counted as
        # maximal chains, which the order complexes built here list
        built = []
        original = FinitePoset.order_complex
        monkeypatch.setattr(
            FinitePoset, "order_complex",
            lambda self, **kw: built.append(original(self, **kw)) or built[-1],
        )
        stats = cm_battery(deg2)
        assert built == []
        assert [stats["facets_ek"], stats["facets_modified"]] == [
            len(original(gamma(kind, deg2), drop_bottom=True).facets)
            for kind in ("ek", "modified")
        ]

    def test_cm_battery_on_criterion_7_runs_no_search(self, monkeypatch):
        rng = random.Random(20260811)  # the 50 draws of the cm-ball suite
        draws = [random_borel_ideal(rng, cm=True) for _ in range(50)]
        calls = []
        original = FinitePoset.order_complex
        monkeypatch.setattr(FinitePoset, "order_complex",
                            lambda self, **kw: calls.append("complex") or original(self, **kw))
        monkeypatch.setattr(shelling, "find_shelling", lambda data: calls.append("search"))
        stats = [cm_battery(J) for J in draws]
        assert calls == []
        # the chain counts are the facet counts of the order complexes
        assert [[s["facets_ek"], s["facets_modified"]] for s in stats] == [
            [len(original(gamma(kind, J), drop_bottom=True).facets)
             for kind in ("ek", "modified")]
            for J in draws
        ]

    def test_messages_built_only_on_failure(self, deg2, monkeypatch):
        # messages print through Monomial.__str__ and, on the squares of the
        # modified ring, through square_str under each name it is imported as
        calls = []
        original = Monomial.__str__
        monkeypatch.setattr(Monomial, "__str__", lambda m: calls.append(m) or original(m))

        def recorded(m, squares):
            calls.append(m)
            return square_str(m, squares)

        for name, module in list(sys.modules.items()):
            if name.startswith("ekcells") and hasattr(module, "square_str"):
                monkeypatch.setattr(module, "square_str", recorded)
        full_battery(deg2)
        assert calls == []

    def test_one_el_sweep_per_kind(self, deg2, el_sweeps):
        stats = full_battery(deg2)
        assert el_sweeps == [("ek", stats["intervals_ek"]), ("modified", stats["intervals_modified"])]


class TestMutationDetection:
    """Deliberate corruptions must be caught by the checkers."""

    def test_sign_flip_breaks_d2(self, deg2):
        cplx = ek_complex(deg2)
        pos, (sign, coeff) = next(iter(sorted(cplx.diffs[1].items())))
        cplx.diffs[1][pos] = (-sign, coeff)
        with pytest.raises(VerificationError, match="d\\^2"):
            check_d2(cplx)

    # the whole message, surviving terms in order, for the first entry of
    # the top differential flipped: on S and on the squares ring (intro's
    # modified complex has one differential, so no d o d to break)
    @pytest.mark.parametrize("kind, name, message", [
        ("ek", "deg2",
         "d^2 != 0 in ek: surviving terms {(0, 1, 'x1*x3'): -2, (0, 0, 'x2*x3'): 2}"),
        ("modified", "deg2",
         "d^2 != 0 in modified: surviving terms "
         "{(0, 1, 'x[1,2]*x[3,2]'): -2, (0, 0, 'x[2,2]*x[3,2]'): 2}"),
        ("modified", "deg4",
         "d^2 != 0 in modified: surviving terms "
         "{(0, 1, 'x[1,2]*x[3,2]'): -2, (0, 0, 'x[2,2]*x[3,2]'): 2}"),
    ])
    def test_sign_flip_names_the_surviving_terms(self, kind, name, message, request):
        cplx = resolution(kind, request.getfixturevalue(name))
        pos, (sign, coeff) = next(iter(sorted(cplx.diffs[1].items())))
        cplx.diffs[1][pos] = (-sign, coeff)
        with pytest.raises(VerificationError) as err:
            check_d2(cplx)
        assert str(err.value) == message

    def test_frame_invariance_equals_the_frame_objects(self):
        # ranks and signs against the frame complexes they stand for: the
        # theta specializations pass, and a flipped sign, a moved entry or a
        # dropped top cell fails, with the message
        rng = random.Random(6)
        for _ in range(10):
            cmod = modified_complex(random_borel_ideal(rng))
            diffs = [dict(mat) for mat in cmod.diffs]
            (i, j), (sign, coeff) = min(diffs[-1].items())
            flipped = [*diffs[:-1], {**diffs[-1], (i, j): (-sign, coeff)}]
            last = len(cmod.basis[-1]) - 1
            dropped = {(r, c): entry for (r, c), entry in diffs[-1].items() if c != last}
            variants = [
                FreeComplex(cmod.kind, cmod.ring, cmod.basis, cmod.mdegs, flipped),
                FreeComplex(cmod.kind, cmod.ring, [*cmod.basis[:-1], cmod.basis[-1][:-1]],
                            [*cmod.mdegs[:-1], cmod.mdegs[-1][:-1]], [*diffs[:-1], dropped]),
            ]
            # the first entry whose column misses a row, moved to that row
            for q, mat in enumerate(diffs):
                free = [(pos, f) for pos in sorted(mat)
                        for f in range(len(cmod.basis[q])) if (f, pos[1]) not in mat]
                if free:
                    (pos, f), moved = free[0], [dict(layer) for layer in diffs]
                    moved[q][f, pos[1]] = moved[q].pop(pos)
                    variants.append(FreeComplex(cmod.kind, cmod.ring, cmod.basis, cmod.mdegs, moved))
                    break
            for other in (specialize_theta(cmod), specialize_theta_prime(cmod), *variants):
                base, frame = frame_complex(cmod), frame_complex(other)
                same = frame.ranks == base.ranks and frame.cols == base.cols
                assert same == (other not in variants)
                if same:
                    check_frame_invariance(cmod, other)
                else:
                    with pytest.raises(VerificationError) as err:
                        check_frame_invariance(cmod, specialize_theta(cmod), other)
                    assert str(err.value) == f"frame of {other.kind} differs from frame of modified"

    def test_unit_coefficient_detected(self, intro):
        cplx = modified_complex(intro)
        pos = next(iter(sorted(cplx.diffs[0])))
        sign, _ = cplx.diffs[0][pos]
        cplx.diffs[0][pos] = (sign, Monomial.unit(len(cplx.squares)))
        with pytest.raises(VerificationError, match="unit"):
            check_minimality(cplx)

    def test_repeated_label_detected(self, deg2, monkeypatch):
        # Shifted removals relabelled as plain ones: the two maximal chains of
        # [e({1};x1*x2), 0hat] in the classical dual then both read (-1, 0).
        original = shelling.el_label_edge
        monkeypatch.setattr(shelling, "el_label_edge", lambda *args: -abs(original(*args)))
        with pytest.raises(VerificationError, match="label tuples repeat"):
            full_battery(deg2)

    def test_repeat_past_a_tie_is_found_and_budgeted(self, deg2, monkeypatch):
        # the same relabelling: the chains out of each element whose labels
        # tie are listed, and a budget too small to find the repeat says so
        original = shelling.el_label_edge
        monkeypatch.setattr(shelling, "el_label_edge", lambda *args: -abs(original(*args)))
        cplx = resolution("ek", deg2)
        dual = build_gamma(cplx).dual()
        with pytest.raises(VerificationError, match=re.escape(
                "label tuples repeat on [e({1};x1*x2), 0hat]")):
            check_intervals(cplx, dual, deg2)
        monkeypatch.setattr(verification, "_TIE_CHAINS", 1)
        with pytest.raises(VerificationError, match="leave injectivity undecided"):
            check_intervals(cplx, dual, deg2)

    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_cell_outside_the_full_pair_intervals_detected(self, kind, deg2):
        # an extra cell over the least element lies below no full pair
        g = gamma(kind, deg2)
        p = FinitePoset(g.elements + ("extra",), g.covers + ((BOTTOM, "extra"),))
        with pytest.raises(VerificationError, match=re.escape(
                f"{kind} poset is not covered by the full-pair intervals")):
            check_interval_decomposition(kind, deg2, p, deg2.is_cm_stable()[1])

    @pytest.mark.parametrize("kind, message", [
        ("ek", "intersection with interval 1 differs from predicted union (ek)"),
        ("modified", "maximal elements of intersection 1 are {~e({(2,2)};x1*x3)}, "
                     "expected {~e({(1,1)};x2*x3)} (modified)"),
    ])
    def test_wrong_intersection_detected(self, kind, message, deg2, monkeypatch):
        # the top generators taken in reverse order predict the wrong overlaps
        original = MonomialIdeal.top_generators
        monkeypatch.setattr(MonomialIdeal, "top_generators", lambda J: original(J)[::-1])
        with pytest.raises(VerificationError, match=re.escape(message)):
            check_interval_decomposition(kind, deg2, gamma(kind, deg2), deg2.is_cm_stable()[1])

    def test_wrong_intersection_message_is_independent_of_hashing(self, monkeypatch):
        # a pair hashes with its kind, which hashes by id, so a set of pairs
        # iterates in an order that varies between processes: under any kind
        # hash the message lists the expected pairs by index tuple and the
        # found ones in poset order
        original = MonomialIdeal.top_generators
        monkeypatch.setattr(MonomialIdeal, "top_generators", lambda J: original(J)[::-1])
        J, messages = power_ideal(3, 3), set()
        for c in range(8):
            monkeypatch.setattr(Kind, "__hash__", lambda self, c=c: c)
            messages.add(raised(check_interval_decomposition, "modified", J,
                                gamma("modified", J), 3))
        assert messages == {
            "maximal elements of intersection 1 are {~e({(2,3)};x1^2*x3)}, expected "
            "{~e({(1,2)};x1*x2*x3), ~e({(2,3)};x1*x2*x3)} (modified)"}

    def test_tied_labels_with_distinct_words_pass(self):
        # 0 < 1, 2 < 3: the two labels out of 0 tie, the words (5, 1) and
        # (5, 2) differ; with both second labels 1 they repeat
        p = FinitePoset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
        verification._check_injective(p, [[5, 5], [1], [2], []])
        with pytest.raises(VerificationError, match=r"label tuples repeat on \[0, 3\]"):
            verification._check_injective(p, [[5, 5], [1], [1], []])

    @pytest.mark.parametrize("kind, message", [
        ("ek", "negative label not rotatable in (-2, -1) at 2 on "
               "[e({1,2};x1*x3), e({};x1^2)]"),
        ("modified", "negative label not commutable in (-2, -1) at 2 on "
                     "[~e({(1,2),(2,2)};x1*x3), ~e({};x1^2)]"),
    ], ids=["ek", "modified"])
    def test_negative_label_rewrite_failure_names_the_rank_two_interval(
            self, deg2, monkeypatch, kind, message):
        # every label negated: shifted removals read negative, and a shifted
        # removal of 1 after the plain removal of 2 has no rank-2 swap
        original = shelling.el_label_edge
        monkeypatch.setattr(shelling, "el_label_edge", lambda *args: -original(*args))
        cplx = resolution(kind, deg2)
        with pytest.raises(VerificationError, match=re.escape(message)):
            check_intervals(cplx, build_gamma(cplx).dual(), deg2)
        if kind == "ek":  # the battery checks the classical kind first
            with pytest.raises(VerificationError, match=re.escape(message)):
                full_battery(deg2)

    def test_positive_label_negation_failure_names_the_rank_two_interval(self, deg2, monkeypatch):
        # plain removals of i relabelled 10 - i: the shifted removal of 1 into
        # the least element then has neither a swap nor a negation
        original = shelling.el_label_edge

        def relabel(*args):
            lab = original(*args)
            return 10 - lab if lab < 0 else lab

        monkeypatch.setattr(shelling, "el_label_edge", relabel)
        cplx = resolution("modified", deg2)
        with pytest.raises(VerificationError, match=re.escape(
                "positive label not negatable in (1, 0) at 2 on [~e({(1,2)};x1*x2), 0hat]")):
            check_intervals(cplx, build_gamma(cplx).dual(), deg2)

    def test_lcm_identity_failure_names_the_interval(self, deg2, monkeypatch):
        # Positive labels 1 and 2 swapped: the increasing chain of
        # [e({1};x1*x2), e({};x1^2)] then reads x2 where the lcm quotient is x1.
        original = shelling.el_label_edge
        swap = {1: 2, 2: 1}
        monkeypatch.setattr(
            shelling, "el_label_edge", lambda *args: swap.get(original(*args), original(*args))
        )
        with pytest.raises(VerificationError, match=r"lcm identity fails on \[e\(\{1\}"):
            full_battery(deg2)

    def test_lcm_identity_is_checked_per_positive_labels(self, deg2, monkeypatch):
        # [~e({(1,2),(2,2)};x1*x3), ~e({};x1^2)] is the second interval with
        # ends x1*x3, x1^2; its word relabelled (-2, 2) reads x[2,2] where
        # the first one's positive label 1 read the lcm quotient x[1,2]
        real = shelling.ELSweep.intervals

        def relabelled(sweep):
            for a, b, word in real(sweep):
                if repr((a, b)) == "(~e({(1,2),(2,2)};x1*x3), ~e({};x1^2))":
                    word = (-2, 2)
                yield a, b, word

        monkeypatch.setattr(shelling.ELSweep, "intervals", relabelled)
        cplx = resolution("modified", deg2)
        with pytest.raises(VerificationError) as info:
            check_intervals(cplx, build_gamma(cplx).dual(), deg2)
        assert str(info.value) == (
            "lcm identity fails on [~e({(1,2),(2,2)};x1*x3), ~e({};x1^2)]: positive-label "
            "monomial x[2,2] differs from lcm quotient x[1,2] on chain "
            "(~e({(1,2),(2,2)};x1*x3), ~e({(1,2)};x1*x3), ~e({};x1^2))"
        )

    def test_label_naming_no_index_is_reported_before_the_lcm_identity(self, deg2,
                                                                       monkeypatch):
        # the first interval above the least element relabelled (7,): no
        # generator of deg2 has an index 7, which _positive_part names
        real, edited = shelling.ELSweep.intervals, []

        def relabelled(sweep):
            for a, b, word in real(sweep):
                if b is not BOTTOM and not edited:
                    edited.append((a, b))
                    word = (7,)
                yield a, b, word

        monkeypatch.setattr(shelling.ELSweep, "intervals", relabelled)
        cplx = resolution("ek", deg2)
        with pytest.raises(VerificationError) as info:
            check_intervals(cplx, build_gamma(cplx).dual(), deg2)
        a, b = edited[0]
        assert str(info.value) == (
            f"lcm identity fails on [{a!r}, {b!r}]: label 7 names no index of {a!r}")

    def test_minimal_support_failure_names_the_interval(self, deg2, monkeypatch):
        # a support search that never tries a single shift finds no minimal
        # support where the increasing chain's positive label is 1
        original = verification.combinations
        monkeypatch.setattr(verification, "combinations",
                            lambda items, size: original(items, size) if size != 1 else iter(()))
        message = ("minimal shift supports [] vs positive labels {1} "
                   "on [e({1};x1*x2), e({};x1^2)]")
        cplx = resolution("ek", deg2)
        with pytest.raises(VerificationError, match=re.escape(message)):
            check_intervals(cplx, build_gamma(cplx).dual(), deg2)
        with pytest.raises(VerificationError, match=re.escape(message)):
            full_battery(deg2)

    @pytest.mark.parametrize("per_interval, calls", [(True, 63), (False, 14)],
                             ids=["memo-per-interval", "memo-per-sweep"])
    def test_minimal_supports_skip_the_supersets_of_a_hit(self, deg2, monkeypatch,
                                                          per_interval, calls):
        # subsets come by size and none that contains a hit is tried: with a
        # fresh memo per interval, 63 calls of g over deg2's 53 intervals,
        # where trying every subset made 92; the sweep's one memo of
        # g(x_G a.m) by (a.m, G) takes that to 14
        class CountingIdeal:
            calls = 0

            def g(self, m):
                self.calls += 1
                return deg2.g(m)

        counting, original = CountingIdeal(), verification._check_minimal_support

        def counted(ideal, a, b, lab0, shifted):
            return original(counting, a, b, lab0, {} if per_interval else shifted)

        monkeypatch.setattr(verification, "_check_minimal_support", counted)
        cplx = resolution("ek", deg2)
        assert check_intervals(cplx, build_gamma(cplx).dual(), deg2) == 53
        assert counting.calls == calls

    def test_wrong_minimal_support_hit_names_the_first_interval(self, deg2, monkeypatch):
        # g(x1*x2*x3) answered x1^2 for the support search alone: the first
        # interval that shifts x1*x3 by x2 loses its hit
        x1x2x3, x1sq = mono("x1*x2*x3", 3), mono("x1^2", 3)

        class WrongIdeal:
            def g(self, m):
                return x1sq if m == x1x2x3 else deg2.g(m)

        original = verification._check_minimal_support
        monkeypatch.setattr(verification, "_check_minimal_support",
                            lambda ideal, *args: original(WrongIdeal(), *args))
        message = ("minimal shift supports [] vs positive labels {2} "
                   "on [e({2};x1*x3), e({};x1*x2)]")
        cplx = resolution("ek", deg2)
        with pytest.raises(VerificationError) as info:
            check_intervals(cplx, build_gamma(cplx).dual(), deg2)
        assert str(info.value) == message
        with pytest.raises(VerificationError) as info:
            full_battery(deg2)
        assert str(info.value) == message

    def test_modified_messages_name_the_cell_and_its_squares(self, deg2):
        # the first cell of degree 1 with its multidegree times x[3,1]
        cplx = modified_complex(deg2)
        poset = gamma("modified", deg2)
        assert cplx.basis[1][0] == AdmissiblePair((1,), mono("x1*x2", 3), "modified")
        cplx.mdegs[1][0] = cplx.mdegs[1][0] * from_squares(cplx.squares, [(3, 1)])
        with pytest.raises(VerificationError) as info:
            check_multidegrees(cplx)
        assert str(info.value) == (
            "multidegree mismatch at (1,0) in degree 1 of modified, cell ~e({(1,2)};x1*x2): "
            "x[1,1]*x[2,2] * x[1,2] != x[1,1]*x[1,2]*x[2,2]*x[3,1]"
        )
        with pytest.raises(VerificationError) as info:
            check_cover_support(poset, cplx)
        assert str(info.value) == (
            "multidegree x[1,1]*x[1,2]*x[2,2]*x[3,1] of ~e({(1,2)};x1*x2) is not the lcm "
            "x[1,1]*x[1,2]*x[2,2] of the cells it covers"
        )

    def test_missing_cover_detected(self, intro):
        cplx = modified_complex(intro)
        poset = gamma("modified", intro)
        pos = next(iter(sorted(cplx.diffs[0])))
        del cplx.diffs[0][pos]
        with pytest.raises(VerificationError, match="covers"):
            check_cover_support(poset, cplx)


    @pytest.mark.parametrize("q, cell", [(1, "e({1};x1*x2)"), (2, "e({1,2};x1*x3)")])
    def test_multidegree_off_the_lcm_labelling_detected(self, deg2, q, cell):
        # the first cell of degree q, its multidegree times x3
        cplx = ek_complex(deg2)
        poset = gamma("ek", deg2)
        check_cover_support(poset, cplx)
        cplx.mdegs[q][0] = cplx.mdegs[q][0].times_var(3)
        with pytest.raises(VerificationError, match=re.escape(f"of {cell} is not the lcm")):
            check_cover_support(poset, cplx)


class TestPropertyChecks:
    def test_g_properties(self, deg2, intro):
        check_g_properties(deg2)
        check_g_properties(intro)

    def test_g_wrong_on_one_product_is_named(self, deg2, monkeypatch):
        # x3^5 has degree 5, above the members' bound 3 and every m * g(n),
        # so it is reached only as the product x3^2 * x3^3
        real, wrong = MonomialIdeal.g, mono("x1^2", 3)

        def g(ideal, m):
            return wrong if m == mono("x3^5", 3) else real(ideal, m)

        monkeypatch.setattr(MonomialIdeal, "g", g)
        with pytest.raises(VerificationError, match=re.escape(
                "g(x3^2*g(x3^3)) = x3^2 != g(x3^2*x3^3) = x1^2")):
            check_g_properties(deg2)

    @pytest.mark.parametrize("draws, wide", [(30, False), (0, True)],
                             ids=["criterion-6", "wide-fields"])
    def test_packed_products_equal_the_tuple_keyed_ones(self, draws, wide, monkeypatch):
        # each distinct product goes through g once, as with tuple keys:
        # g is called on the members, the x_i * m, then the products
        rng6 = random.Random(20260810)
        ideals = [random_borel_ideal(rng6) for _ in range(draws)]
        ideals += wide_field_ideals() if wide else []
        calls, real = [], MonomialIdeal.g
        monkeypatch.setattr(MonomialIdeal, "g",
                            lambda ideal, m: calls.append(m.exps) or real(ideal, m))
        for J in ideals:
            members, products = product_lookups(J)
            calls.clear()
            check_g_properties(J)
            head = len(members) + len(J.gens) * J.n
            assert calls[:len(members)] == members, J
            assert calls[head:] == products, J

    def test_g_off_the_max_min_witness_raises(self, deg2, monkeypatch):
        # x1*x3 divides the member x1*x2*x3, but its witness is x1*x2:
        # x1*x3 / x1*x3 leaves x2, below max(x1*x3) = 3
        real, member = MonomialIdeal.g, mono("x1*x2*x3", 3)
        monkeypatch.setattr(MonomialIdeal, "g", lambda ideal, m: (
            mono("x1*x3", 3) if m == member else real(ideal, m)))
        with pytest.raises(RuntimeError, match=re.escape(
                "decomposition characterizations disagree on x1*x2*x3: "
                "lex-greatest x1*x3, max/min witnesses [Monomial(x1*x2)]")):
            check_g_properties(deg2)

    def test_passing_g_properties_format_no_monomial(self, deg2, deg4, monkeypatch):
        formatted = []
        real = Monomial.__str__
        monkeypatch.setattr(Monomial, "__str__", lambda m: formatted.append(m) or real(m))
        check_g_properties(deg2)
        check_g_properties(deg4)
        assert formatted == []

    def test_shift_instances(self, deg2, deg4):
        check_shift_instances(deg2)
        check_shift_instances(deg4)

    def test_bset_relation_failure_names_the_pair(self, deg2, monkeypatch):
        # with every one-index B set emptied, dropping an index from a
        # two-index pair loses the other index's B membership
        real = verification._b_indices

        def no_single_index(F, row):
            return () if len(F) == 1 else real(F, row)

        monkeypatch.setattr(verification, "_b_indices", no_single_index)
        message = "2 leaves the B set of ~e({(1,2),(2,2)};x1*x3) after dropping 1"
        with pytest.raises(VerificationError, match=re.escape(message)):
            check_shift_instances(deg2)

    @pytest.mark.parametrize("name", ["deg2", "deg4"])
    def test_shift_table_has_one_entry_per_generator_and_index(self, name, request,
                                                               monkeypatch):
        J = request.getfixturevalue(name)
        made, real = [], verification._shift_entry
        monkeypatch.setattr(verification, "_shift_entry",
                            lambda *args: made.append(args[2:]) or real(*args))
        check_shift_instances(J)
        # sum(max(m) - 1) entries: each (generator, index) once, in table order
        assert made == [(m, i) for m in J.gens for i in range(1, m.max_var())]

    @pytest.mark.parametrize("shifted, message", [
        ("x1^2", "lcm quotient x[1,2]*x[3,1] of ~e({(1,2)};x1*x2) at 1 is not x[1,2]"),
        ("x2^2", "lcm quotient x[2,2]*x[3,1] of ~e({(2,2)};x2*x3) at 2 is not x[2,2]"),
    ])
    def test_wrong_lcm_quotient_names_the_first_pair(self, deg2, monkeypatch, shifted, message):
        # bpol of one generator given an extra factor x[3,1]: the quotient at
        # the first (m, i) whose shift is that generator reads it too, first
        # on ({i}, m): (x1*x2, 1) for x1^2, (x2*x3, 2) for x2^2
        real = verification.bpol_lifts

        def lifts(ideal):
            squares, lift = real(ideal)
            m = mono(shifted, 3)
            return squares, {**lift, m: lift[m] * from_squares(squares, [(3, 1)])}

        monkeypatch.setattr(verification, "bpol_lifts", lifts)
        for check in (check_shift_instances, full_battery):
            with pytest.raises(VerificationError) as info:
                check(deg2)
            assert str(info.value) == message

    def test_interval_sweep_counts(self, intro):
        cplx = resolution("ek", intro)
        assert check_intervals(cplx, build_gamma(cplx).dual(), intro) == 9


def raised(check, *args):
    """The message of the VerificationError that check(*args) raises, or None."""
    try:
        check(*args)
    except VerificationError as err:
        return str(err)
    return None


def reference_exchanges(J, h):
    """The message ``check_cm_generator_exchanges`` raises on (J, h), or None,
    by the definition: a completion of base is looked up among the
    base * x_h^l, 1 <= l <= max_deg + 1."""
    xh = Monomial.variable(J.n, h)
    gens = set(J.gens)

    def completes(base):
        return any(base * xh ** l in gens for l in range(1, J.max_deg() + 2))

    for m in J.gens:
        for k in m.support():
            if not completes(m.div_var(k)):
                return f"no power of x{h} completes {m}/x{k} into a generator"
    if J.is_borel_fixed():
        for m in J.gens:
            for k in m.support():
                if k < h:
                    base = m.div_var(k).times_var(k + 1)
                    if base not in gens and not completes(base):
                        return f"no power of x{h} completes ({m}/x{k})*x{k + 1} into a generator"
    return None


def reference_decomposition(kind, J, poset, h):
    """The message ``check_interval_decomposition`` raises, or None, by the
    definition: each full-pair interval as a set of cells, and the maximal
    cells of each intersection by a scan of all its pairs."""
    tops = J.top_generators()
    full = tuple(range(1, h))
    intervals = [set(interval(poset, BOTTOM, AdmissiblePair(full, m, kind))) for m in tops]
    if set().union(*intervals) != set(poset.elements):
        return f"{kind} poset is not covered by the full-pair intervals"
    for jj in range(1, len(tops)):
        inter = set().union(*intervals[:jj]) & intervals[jj]
        m = tops[jj]
        expected = sorted(tuple(x for x in full if x != s) for s in m.support() if s != h)
        expected = [AdmissiblePair(F, m, kind) for F in expected]
        maximal = [x for x in poset.elements
                   if x in inter and not any(y != x and poset.leq(x, y) for y in inter)]
        if set(maximal) != set(expected):
            return (f"intersection with interval {jj} differs from predicted union ({kind})"
                    if kind == "ek" else
                    f"maximal elements of intersection {jj} are {braced(maximal)}, "
                    f"expected {braced(expected)} ({kind})")
    return None


def braced(items):
    """The items as a set of them prints, in the given order."""
    return "{" + ", ".join(map(repr, items)) + "}" if items else "set()"


def decomposition_ideals():
    """Criterion 7's draws, (x1..x3)^2..4, (x1..x4)^2..3 and the named ideals."""
    return (criterion_draws(7) + [power_ideal(3, d) for d in (2, 3, 4)]
            + [power_ideal(4, d) for d in (2, 3)] + [named_ideal(name) for name in NAMED_IDEALS])


class TestCMStructureOracles:
    def test_missing_power_completion_names_the_quotient(self):
        J = ideal(2, "x1^2", "x1*x2")
        with pytest.raises(VerificationError, match=re.escape(
                "no power of x2 completes x1*x2/x1 into a generator")):
            check_cm_generator_exchanges(J, 2)

    def test_missing_borel_completion_names_the_moved_quotient(self):
        # found by a search of the Borel closures of up to three seeds of
        # degree <= 3 in up to four variables, the only one failing the Borel
        # form alone, with h = 3 below max_max = 4: every generator completes
        # in the stable form, but (x1*x4/x1)*x2 = x2*x4 is no generator and
        # x2*x3 divides every x2*x4*x3^l
        J = ideal(4, "x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3", "x3^3", "x3^2*x4")
        assert J.is_borel_fixed()
        with pytest.raises(VerificationError, match=re.escape(
                "no power of x3 completes (x1*x4/x1)*x2 into a generator")):
            check_cm_generator_exchanges(J, 3)

    def test_exchanges_agree_with_the_power_scan(self):
        # criterion 6's draws are mostly not Cohen-Macaulay, so many raise
        draws = criterion_draws(6) + criterion_draws(7)
        outcomes = [raised(check_cm_generator_exchanges, J, J.max_max()) for J in draws]
        assert outcomes == [reference_exchanges(J, J.max_max()) for J in draws]
        assert outcomes.count(None) not in (0, len(draws))

    def test_decomposition_agrees_with_the_set_definition(self, monkeypatch):
        outcomes = []

        def compare(kind, J, poset):
            h = J.max_max()
            got = raised(check_interval_decomposition, kind, J, poset, h)
            assert got == reference_decomposition(kind, J, poset, h), (kind, J)
            outcomes.append(got)

        cases = [(kind, J, gamma(kind, J))
                 for J in decomposition_ideals() for kind in ("ek", "modified")]
        for kind, J, g in cases:
            compare(kind, J, g)
            # one cover removed, at eight places, and an extra minimal cell
            # under the last cell
            for drop in range(0, len(g.covers), -(-len(g.covers) // 8)):
                compare(kind, J, FinitePoset(g.elements, g.covers[:drop] + g.covers[drop + 1:]))
            compare(kind, J, FinitePoset(g.elements + ("extra",),
                                         g.covers + (("extra", g.elements[-1]),)))
        original = MonomialIdeal.top_generators
        monkeypatch.setattr(MonomialIdeal, "top_generators", lambda J: original(J)[::-1])
        for kind, J, g in cases:
            compare(kind, J, g)
        assert None in outcomes
        assert {message.split(" ")[0] for message in outcomes if message} == {
            "ek", "modified", "intersection", "maximal"}
        # some failures name several maximal cells, whose print order is pinned
        assert any(message and message.split(" expected ")[0].count("~e(") > 1
                   for message in outcomes)

    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_full_pair_outside_the_poset_raises(self, kind, deg2):
        # the full pairs of the other kind are not cells of this poset
        other = "modified" if kind == "ek" else "ek"
        with pytest.raises(KeyError):
            check_interval_decomposition(other, deg2, gamma(kind, deg2), 3)


def reference_intervals(cplx, dual, J):
    """``check_intervals`` with each EL failure worded off the built reports
    (``conftest.el_reports``) and the lcm identity decided and worded by
    ``Monomial`` arithmetic (``conftest.positive_part``): the count of
    intervals, or the VerificationError it raises.  The local label checks
    and the minimal supports are the module's own, so that a test can stub
    them on both sides."""
    sweep = shelling.verify_el_all(dual, J)
    verification._check_injective(dual, sweep.cover_labels)
    verification._check_label_rewrites(cplx.kind, dual, sweep.cover_labels)
    squares = cplx.squares
    lifts = dict(zip((pair.m for pair in cplx.basis[0]), cplx.mdegs[0]))
    variables = _attached(kind_of(cplx.kind), J, squares)
    holds, shifted = set(), {}
    for rep, (a, b, word) in zip(el_reports(sweep), sweep.intervals()):
        if word is None:
            if rep.increasing_chains != 1:
                raise VerificationError(
                    f"{rep.increasing_chains} increasing maximal chains on [{a!r}, {b!r}]")
            raise VerificationError(f"increasing chain not lex-least on [{a!r}, {b!r}]")
        if b is BOTTOM:
            continue
        key = (a.m, b.m, tuple(x for x in word if x > 0))
        if key not in holds:
            try:
                positive_part(variables[a.m], squares, rep.increasing_chain, word,
                              lifts[a.m], lifts[b.m])
            except RuntimeError as exc:
                raise VerificationError(f"lcm identity fails on [{a!r}, {b!r}]: {exc}") from exc
            holds.add(key)
        if cplx.kind == "ek":
            verification._check_minimal_support(J, a, b, word, shifted)
    return len(sweep)


# interval words rewritten, each with a piece of the message it must raise: a
# label past every index, the positive labels negated, and each positive
# label moved to a neighbouring index
WORD_EDITS = {
    "no index": (lambda word: (*word, 99), "label 99 names no index of "),
    "negated": (lambda word: tuple(-abs(x) for x in word), "positive-label monomial 1 differs"),
    "moved": (lambda word: tuple(x - 1 if x > 1 else x + (x == 1) for x in word),
              "lcm identity fails on "),
}


class TestIntervalWordingOracle:
    """``check_intervals`` words each failure as the reference does, which
    reads built reports and the ``Monomial`` lcm route, and passes where it
    passes: under labelings that break EL, with the local label checks kept
    and stubbed (so that the EL wording is reached), and with one interval
    word rewritten."""

    @pytest.fixture(scope="class")
    def cases(self):
        ideals = ([named_ideal(name) for name in NAMED_IDEALS]
                  + [power_ideal(3, d) for d in (2, 3)] + [power_ideal(4, 2)])
        return [(resolution(kind, J), J) for J in ideals for kind in ("ek", "modified")]

    @staticmethod
    def outcome(check, cplx, J):
        try:
            return check(cplx, build_gamma(cplx).dual(), J)
        except VerificationError as err:
            return str(err)

    @pytest.mark.parametrize("local", ["kept", "stubbed"])
    @pytest.mark.parametrize("labelling", ["pseudo-random", "constant", "unsigned"])
    def test_relabelled_sweeps(self, labelling, local, cases, monkeypatch):
        monkeypatch.setattr(shelling, "el_label_edge", relabelling(labelling))
        if local == "stubbed":
            monkeypatch.setattr(verification, "_check_injective", lambda *args: None)
            monkeypatch.setattr(verification, "_check_label_rewrites", lambda *args: None)
        seen = set()
        for cplx, J in cases:
            got = self.outcome(check_intervals, cplx, J)
            assert got == self.outcome(reference_intervals, cplx, J), (cplx.kind, J)
            seen.add(got if isinstance(got, int) else re.sub(r"^\d+ |\[.*", "", got))
        if local == "stubbed":
            assert "increasing maximal chains on " in seen

    def test_one_chain_marked_failing(self, cases, monkeypatch):
        # the sweep records an interval that has one increasing chain as
        # failing, the first such above the least element
        real = shelling.verify_el_all

        def marked(dual, J):
            sweep = real(dual, J)
            sweep.failing.append(next(
                (a, b) for a, ra in enumerate(sweep.rising) for b, r in sorted(ra.items())
                if b != a and r.__class__ is int and dual.elements[b] is not BOTTOM))
            return sweep

        monkeypatch.setattr(shelling, "verify_el_all", marked)
        for cplx, J in cases:
            got = self.outcome(check_intervals, cplx, J)
            assert got.startswith("increasing chain not lex-least on "), (cplx.kind, J)
            assert got == self.outcome(reference_intervals, cplx, J), (cplx.kind, J)

    @pytest.mark.parametrize("edit", list(WORD_EDITS))
    def test_rewritten_words(self, edit, cases, monkeypatch):
        # the first, middle or last interval above the least element with a
        # positive label gets its word rewritten
        (rewrite, piece), real, target = WORD_EDITS[edit], shelling.ELSweep.intervals, []

        def rewritten(sweep):
            for k, (a, b, word) in enumerate(real(sweep)):
                yield a, b, rewrite(word) if k == target[0] else word

        monkeypatch.setattr(shelling.ELSweep, "intervals", rewritten)
        for cplx, J in cases:
            sweep = shelling.verify_el_all(build_gamma(cplx).dual(), J)
            ks = [k for k, (_, b, word) in enumerate(real(sweep))
                  if b is not BOTTOM and max(word) > 0]
            for k in {ks[0], ks[len(ks) // 2], ks[-1]}:
                target[:] = [k]
                got = self.outcome(check_intervals, cplx, J)
                assert piece in got, (cplx.kind, J, k)
                assert got == self.outcome(reference_intervals, cplx, J), (cplx.kind, J, k)
