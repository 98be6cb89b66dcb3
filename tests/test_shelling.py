import hashlib
import json
import random
import zlib
from collections import Counter
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekcells import (
    BOTTOM,
    AdmissiblePair,
    FinitePoset,
    SimplicialComplexData,
    ball_check,
    build_gamma,
    ek_complex,
    el_label_edge,
    find_shelling,
    is_cw_poset,
    random_borel_ideal,
    shelling,
    verify_el_all,
)
from ekcells.cli import main
from ekcells.ek import _attached, kind_of
from ekcells.shelling import ELReport, ShellingResult, verify_shelling_order
from ekcells.suite import NAMED_IDEALS, named_ideal
from ekcells.verification import VerificationError, check_intervals, cm_battery
from conftest import ball, gamma, ideal, mono, power_ideal, stable_closures


class TestEdgeLabels:
    def test_plain_removal_is_negative(self, deg2):
        lower = AdmissiblePair((1, 2), mono("x3^2", 3))
        upper = AdmissiblePair((2,), mono("x3^2", 3))
        assert el_label_edge("ek", lower, upper, deg2) == -1

    def test_shifted_removal_is_positive(self, deg2):
        lower = AdmissiblePair((1, 2), mono("x3^2", 3))
        upper = AdmissiblePair((2,), mono("x1*x3", 3))
        assert el_label_edge("ek", lower, upper, deg2) == 1

    def test_bottom_cover_is_zero(self, deg2):
        for m in deg2.gens:
            assert el_label_edge("ek", AdmissiblePair((), m), BOTTOM, deg2) == 0

    def test_invalid_cover_rejected(self, deg2):
        lower = AdmissiblePair((1, 2), mono("x3^2", 3))
        with pytest.raises(ValueError):
            el_label_edge("ek", lower, AdmissiblePair((2,), mono("x2^2", 3)), deg2)
        with pytest.raises(ValueError):
            el_label_edge("ek", lower, BOTTOM, deg2)


class TestELVerification:
    def test_top_interval_label(self, deg2):
        # the unique increasing chain down to the least element removes the
        # index set from the largest entry and ends with the zero label
        g = gamma("modified", deg2).dual()
        starts = [e for e in g.elements if e is not BOTTOM and len(e.F) == 2]
        for start in starts:
            rep = reference_el_report("modified", g, start, BOTTOM, deg2)
            assert rep.passed
            i1, i2 = start.F
            assert rep.increasing_label == (-i2, -i1, 0)

    def test_length_one_interval(self, deg2):
        g = gamma("ek", deg2).dual()
        a, b = g.covers[0]
        rep = reference_el_report("ek", g, a, b, deg2)
        assert rep.passed and rep.max_chains == 1

    def test_all_intervals_pass(self, tri_tri):
        for kind in ("ek", "modified"):
            dual = gamma(kind, tri_tri).dual()
            reports = verify_el_all(kind, dual, tri_tri)
            assert reports and all(r.passed for r in reports)


def reference_el_report(kind, dual, a, b, ideal, label=None):
    """The EL report of [a, b] by definition: its maximal chains from
    ``chains_between``, labelled through ``label``, a dict keyed by the
    (x, y) cover (by ``shelling.el_label_edge``, as the sweep does, when None)."""
    chains = dual.chains_between(a, b)
    if label is None:
        label = {(x, y): shelling.el_label_edge(kind, x, y, ideal)
                 for c in chains for x, y in zip(c, c[1:])}
    labels = [tuple(label[e] for e in zip(c, c[1:])) for c in chains]
    increasing = [lab for lab in labels if all(x <= y for x, y in zip(lab, lab[1:]))]
    lex_least, chain0, label0 = False, None, None
    if len(increasing) == 1:
        label0 = increasing[0]
        chain0 = chains[labels.index(label0)]
        lex_least = (all(label0 < lab for lab in labels if lab != label0)
                     and labels.count(label0) == 1)
    return ELReport(a, b, len(chains), len(increasing), lex_least,
                    len(increasing) == 1 and lex_least, chain0, label0)


def reference_el_reports(kind, dual, ideal):
    """The reports of every nontrivial interval of the dual, by definition, in
    ``verify_el_all``'s order."""
    label = {(x, y): shelling.el_label_edge(kind, x, y, ideal) for x, y in dual.covers}
    return [reference_el_report(kind, dual, a, b, ideal, label)
            for a in dual.elements for b in dual.elements if a != b and dual.leq(a, b)]


class TestSweepOracle:
    @pytest.fixture(scope="class")
    def sweep_ideals(self):
        """The named ideals, the first 50 ideals of the structural suite, the
        50 of the ball suite, (x1..x3)^2..4 and (x1..x4)^2."""
        rng6, rng7 = random.Random(20260810), random.Random(20260811)
        return ([named_ideal(name) for name in NAMED_IDEALS]
                + [random_borel_ideal(rng6) for _ in range(50)]
                + [random_borel_ideal(rng7, cm=True) for _ in range(50)]
                + [power_ideal(3, d) for d in (2, 3, 4)] + [power_ideal(4, 2)])

    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_sweep_equals_the_reference(self, kind, sweep_ideals):
        rules = kind_of(kind)
        for J in sweep_ideals:
            dual = gamma(kind, J).dual()
            reports = verify_el_all(kind, dual, J)
            assert reports == reference_el_reports(kind, dual, J), J
            squares = rules.lifts(J)[0]
            variables = _attached(rules, J, squares)
            for rep in reports:
                if rep.top is not BOTTOM:
                    chain, lab = rep.increasing_chain, rep.increasing_label
                    shelling._positive_part(  # raises on a mismatch
                        variables[rep.bottom.m], squares, chain, lab,
                        rules.lift(rep.bottom.m, squares), rules.lift(rep.top.m, squares))

    @pytest.mark.parametrize("labelling", ["pseudo-random", "constant", "unsigned"])
    def test_sweep_equals_the_reference_under_other_labels(self, labelling, monkeypatch):
        # labels that break EL: ties out of an element (words then compared
        # past the first label, and repeated), intervals with no, several, or
        # one increasing chain that is not lex-least
        original = shelling.el_label_edge
        relabel = {
            "pseudo-random": lambda kind, x, y, J: zlib.crc32(repr((x, y)).encode()) % 3 - 1,
            "constant": lambda *args: 0,
            "unsigned": lambda *args: -abs(original(*args)),
        }[labelling]
        monkeypatch.setattr(shelling, "el_label_edge", relabel)
        cases = Counter()
        for J in ([named_ideal(name) for name in NAMED_IDEALS]
                  + [power_ideal(3, d) for d in (2, 3)] + [power_ideal(4, 2)]):
            for kind in ("ek", "modified"):
                dual = gamma(kind, J).dual()
                reports = verify_el_all(kind, dual, J)
                assert reports == reference_el_reports(kind, dual, J), (kind, J)
                cases.update("passed" if r.passed else min(r.increasing_chains, 2)
                             for r in reports)
        # 0: no increasing chain, 1: one that is not lex-least, 2: several
        if labelling == "pseudo-random":
            assert cases[0] and cases[1] and cases[2], cases
        assert cases[2], cases


class TestSweepScale:
    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_complete_intersection_of_eight_variables(self, kind):
        # (x1..x7, x8^2): Gamma is the face lattice of a 7-simplex, so an
        # interval of rank k has k! maximal chains, up to 8! = 40,320, and
        # listing them all takes about half a second per kind
        J = ideal(8, *(f"x{i}" for i in range(1, 8)), "x8^2")
        reports = verify_el_all(kind, gamma(kind, J).dual(), J)
        assert len(reports) == 6305
        assert all(r.passed for r in reports)
        assert max(r.max_chains for r in reports) == 40320


class TestChainMonomial:
    def test_lcm_identity_on_increasing_chains(self, deg2):
        for kind in ("ek", "modified"):
            check_intervals(kind, gamma(kind, deg2).dual(), deg2)  # raises on a mismatch


class TestCWPoset:
    def test_two_element_chain(self):
        # the smallest CW poset: the least element plus one 0-cell
        from conftest import ideal

        J = ideal(1, "x1")
        g = gamma("ek", J)
        assert len(g) == 2
        ok, witness = is_cw_poset(g, "ek", J)
        assert ok and witness["el_failures"] == 0

    def test_degree2_both_kinds(self, deg2):
        for kind in ("ek", "modified"):
            ok, witness = is_cw_poset(gamma(kind, deg2), kind, deg2)
            assert ok
            assert witness["el_failures"] == 0

    def test_modified_cw_on_random_borel(self):
        rng = random.Random(83)
        for _ in range(8):
            J = random_borel_ideal(rng, max_gens=8)
            ok, _ = is_cw_poset(gamma("modified", J), "modified", J)
            assert ok

    def test_not_thin_fails(self, deg2):
        p = FinitePoset(range(3), [(0, 1), (1, 2)])
        ok, witness = is_cw_poset(p, "ek", deg2)
        assert not ok and not witness["thin"]


def two_squares_under_one_top():
    """A least element, two disjoint 4-cycles of vertices and edges, and one
    top element above all eight edges: thin and pure, but the lower interval
    of the top is a double cone over two circles, which is not shellable."""
    vertices = [("v", c, k) for c in range(2) for k in range(4)]
    edges = [("e", c, k) for c in range(2) for k in range(4)]
    covers = [("0", v) for v in vertices] + [(e, "1") for e in edges]
    covers += [(("v", c, j), ("e", c, k)) for c in range(2) for k in range(4)
               for j in (k, (k + 1) % 4)]
    return FinitePoset(["0"] + vertices + edges + ["1"], covers)


@pytest.fixture
def first_report_fails(monkeypatch):
    """Every EL sweep reports its first interval failed; the failed reports
    are recorded in ``.failed``, and any shelling search or order complex is
    recorded in ``.searches`` and raises."""
    state = SimpleNamespace(failed=[], searches=[])
    real = shelling.verify_el_all

    def sweep(*args):
        reports = real(*args)
        reports[0] = replace(reports[0], passed=False)
        state.failed.append(reports[0])
        return reports

    def search(*args, **kwargs):
        state.searches.append(args)
        raise AssertionError("a CW verdict ran a shelling search")

    monkeypatch.setattr(shelling, "verify_el_all", sweep)
    monkeypatch.setattr(shelling, "find_shelling", search)
    monkeypatch.setattr(FinitePoset, "order_complex", search)
    return state


class TestCWFromSweep:
    """is_cw_poset certifies CW by the EL sweep alone: a failing report reads
    as not CW, names its dual interval, and starts no shelling search."""

    @pytest.mark.parametrize("name", ["deg2", "tri-tri", "tri-sq", "deg4"])
    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_failing_report_refutes_cw_without_search(self, name, kind, first_report_fails):
        J = named_ideal(name)
        ok, witness = is_cw_poset(gamma(kind, J), kind, J)
        (failed,) = first_report_fails.failed
        assert not ok
        assert witness["el_failures"] == 1
        assert witness["el_first_failure"] == (failed.bottom, failed.top)
        assert not first_report_fails.searches

    def test_unshellable_poset_is_refuted_by_its_report(self, deg2, monkeypatch):
        p = two_squares_under_one_top()
        assert len(p) == 18 and p.is_thin() and p.is_pure()
        failed = shelling.ELReport(bottom="1", top="0", max_chains=0, increasing_chains=0,
                                   lex_least=False, passed=False)
        monkeypatch.setattr(shelling, "verify_el_all", lambda *args: [failed])
        ok, witness = is_cw_poset(p, "ek", deg2)
        assert not ok
        assert witness == {"thin": True, "bounded_below": True, "el_intervals": 1,
                           "el_failures": 1, "el_first_failure": ("1", "0")}

    def test_verify_prints_cw_false(self, first_report_fails, capsys):
        assert main(["verify", "--named", "deg2", "--check", "cw"]) == 1
        out = capsys.readouterr().out
        assert '"cw": false' in out
        assert {k: c["cw"] for k, c in json.loads(out)["kinds"].items()} == {
            "ek": False, "modified": False}
        assert not first_report_fails.searches

    def test_cm_battery_names_kind_and_interval(self, deg2, first_report_fails):
        with pytest.raises(VerificationError, match="ek poset not certified CW") as exc:
            cm_battery(deg2)
        (failed,) = first_report_fails.failed
        assert repr((failed.bottom, failed.top)) in str(exc.value)
        assert not first_report_fails.searches

    def test_stable_non_borel_ideals_pass_el(self):
        # 61 stable closures, 14 of them not Borel fixed, which the Borel
        # batteries never draw
        ideals = stable_closures()
        assert len(ideals) == 61 and all(J.is_stable() for J in ideals)
        non_borel = [J for J in ideals if not J.is_borel_fixed()]
        assert len(non_borel) == 14
        for J in non_borel:
            ok, witness = is_cw_poset(gamma("ek", J), "ek", J)
            assert ok and witness["el_failures"] == 0, J


def pairwise_shelling_order(data, order):
    """The shelling condition by definition, facet against facet: each facet
    after the first meets some earlier one in a ridge, and its intersection
    with every earlier facet lies in one of those ridges.  The intersections
    are collected from the earlier facets that meet it, plus the empty one
    when some earlier facet does not."""
    facets = sorted(data.facets, key=lambda f: tuple(sorted(f)))
    if sorted(order) != list(range(len(facets))):
        return False
    size = len(facets[0])
    earlier = {}  # vertex -> the earlier facets that contain it
    for pos, i in enumerate(order):
        s = facets[i]
        if pos:
            meeting = {t for v in s for t in earlier.get(v, ())}
            inters = {s & t for t in meeting}
            if len(meeting) < pos:
                inters.add(frozenset())
            ridges = [x for x in inters if len(x) == size - 1]
            if not ridges:
                return False
            if not all(any(x <= rho for rho in ridges) for x in inters):
                return False
        for v in s:
            earlier.setdefault(v, []).append(s)
    return True


@st.composite
def pure_complexes(draw):
    """Up to 10 distinct k-subsets of at most 6 vertices."""
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=n))
    chosen = draw(st.lists(st.sampled_from(list(combinations(range(n), k))),
                           min_size=1, max_size=10, unique=True))
    return SimplicialComplexData(tuple(range(n)), tuple(frozenset(f) for f in chosen))


def swapped(order, k):
    """``order`` with its entries k and k + 1 exchanged."""
    out = list(order)
    out[k], out[k + 1] = out[k + 1], out[k]
    return out


class TestShellingCheckOracle:
    """The one-pass ``verify_shelling_order`` against the pairwise reference."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(pure_complexes(), st.randoms(use_true_random=False))
    def test_random_orders(self, data, rnd):
        order = list(range(len(data.facets)))
        rnd.shuffle(order)
        assert verify_shelling_order(data, order) == pairwise_shelling_order(data, order)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(pure_complexes(), st.data())
    def test_found_orders_and_a_transposition(self, data, draws):
        order = find_shelling(data).order
        if order is None:
            return
        assert pairwise_shelling_order(data, order)
        if len(order) > 1:
            moved = swapped(order, draws.draw(st.integers(0, len(order) - 2)))
            assert verify_shelling_order(data, moved) == pairwise_shelling_order(data, moved)

    @pytest.mark.parametrize("name", NAMED_IDEALS)
    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_every_transposition_of_a_found_order(self, name, kind):
        data = gamma(kind, named_ideal(name)).order_complex(drop_bottom=True)
        order = find_shelling(data).order
        if order is None:
            return
        verdicts = [verify_shelling_order(data, swapped(order, k)) for k in range(len(order) - 1)]
        assert verdicts == [pairwise_shelling_order(data, swapped(order, k))
                            for k in range(len(order) - 1)]
        assert not all(verdicts)

    def test_non_permutations_rejected(self, deg2):
        data = gamma("ek", deg2).order_complex(drop_bottom=True)
        order = find_shelling(data).order
        assert not verify_shelling_order(data, order[:-1])
        assert not verify_shelling_order(data, order + [order[0]])


# SHA-256 of repr((order, exhaustive)) of each search below, in order, as the
# recursive search that the explicit-stack one replaced answered them
SEARCH_DIGEST = "71ba1961ef72cbcc406de0c02de735fb9c5d158bfa1ee55bc8ba7c7e2a273d44"


class TestSearchPins:
    def test_answers_equal_the_recorded_digest(self):
        rng = random.Random(20260811)  # the 50 draws of the cm-ball suite
        ideals = ([named_ideal(name) for name in NAMED_IDEALS]
                  + [power_ideal(3, d) for d in (2, 3, 4)]
                  + [power_ideal(4, d) for d in (2, 3)]
                  + [random_borel_ideal(rng, cm=True) for _ in range(50)])
        digest = hashlib.sha256()
        for kind in ("ek", "modified"):
            for J in ideals:
                res = find_shelling(gamma(kind, J).order_complex(drop_bottom=True))
                digest.update(repr((res.order, res.exhaustive)).encode())
        assert digest.hexdigest() == SEARCH_DIGEST

    @pytest.mark.parametrize("name, kind, nodes, answer", [
        ("tri-tri", "modified", 63, ShellingResult(None, True)),
        ("deg2", "ek", 20, ShellingResult([0, 1, 2, 3, 4, 7, 6, 5] + list(range(8, 20)), True)),
    ])
    def test_node_budget_boundary(self, name, kind, nodes, answer, monkeypatch):
        # the search visits exactly ``nodes`` nodes: that budget gives its
        # answer, one node less runs out
        data = gamma(kind, named_ideal(name)).order_complex(drop_bottom=True)
        assert find_shelling(data) == answer
        monkeypatch.setattr(shelling, "NODE_BUDGET", nodes)
        assert find_shelling(data) == answer
        monkeypatch.setattr(shelling, "NODE_BUDGET", nodes - 1)
        assert find_shelling(data) == ShellingResult(None, False)

    def test_three_thousand_facets_need_no_recursion(self):
        # (x1..x5)^3 has 3,024 facets; a search that recursed once per placed
        # facet exceeded the interpreter's recursion limit here
        J = power_ideal(5, 3)
        data = gamma("ek", J).order_complex(drop_bottom=True)
        assert len(data.facets) == 3024
        res = find_shelling(data)
        assert pairwise_shelling_order(data, res.order)
        assert ball("ek", J).verdict == "ball-certified"


class TestFindShelling:
    def test_single_simplex(self):
        data = SimplicialComplexData((0, 1, 2), (frozenset({0, 1, 2}),))
        res = find_shelling(data)
        assert res.order == [0]

    def test_void_complex(self):
        # no facets: the empty order shells it
        data = SimplicialComplexData((), ())
        assert find_shelling(data) == ShellingResult([], True)
        assert verify_shelling_order(data, [])

    def test_two_triangles_sharing_a_vertex(self):
        data = SimplicialComplexData(
            tuple(range(5)), (frozenset({0, 1, 2}), frozenset({2, 3, 4}))
        )
        res = find_shelling(data)
        assert res.order is None and res.exhaustive

    def test_degree2_order_complex_shellable(self, deg2):
        data = gamma("ek", deg2).order_complex(drop_bottom=True)
        res = find_shelling(data)
        assert res.order is not None
        assert verify_shelling_order(data, res.order)
        assert pairwise_shelling_order(data, res.order)

    def test_non_pure_rejected(self):
        data = SimplicialComplexData(
            tuple(range(4)), (frozenset({0, 1, 2}), frozenset({0, 3}))
        )
        with pytest.raises(ValueError, match="pure"):
            find_shelling(data)

    def test_budget_exhaustion_is_flagged(self, tri_tri, monkeypatch):
        data = gamma("modified", tri_tri).order_complex(drop_bottom=True)
        monkeypatch.setattr(shelling, "NODE_BUDGET", 3)
        res = find_shelling(data)
        assert res.order is None and not res.exhaustive

    def test_node_budget_bounds_a_search_within_the_facet_budget(self, tri_tri, monkeypatch):
        # 12 facets, not shellable: a complex this small once had its node
        # budget lifted; now a search that runs out of nodes proves nothing,
        # and one that finishes proves unshellability
        data = gamma("modified", tri_tri).order_complex(drop_bottom=True)
        assert len(data.facets) <= 64
        monkeypatch.setattr(shelling, "NODE_BUDGET", 1)
        res = find_shelling(data)
        assert res.order is None and not res.exhaustive
        monkeypatch.undo()  # the default budget
        res = find_shelling(data)
        assert res.order is None and res.exhaustive

    def test_order_failing_its_check_raises(self, deg2, monkeypatch):
        # the final check of the search is no assert, so it also runs under -O
        monkeypatch.setattr(shelling, "verify_shelling_order", lambda data, order: False)
        data = gamma("ek", deg2).order_complex(drop_bottom=True)
        with pytest.raises(RuntimeError, match="fails the check"):
            find_shelling(data)

    def test_order_failing_its_check_exits_3(self, monkeypatch, capsys):
        from ekcells.cli import main

        monkeypatch.setattr(shelling, "verify_shelling_order", lambda data, order: False)
        assert main(["verify", "--named", "deg2", "--check", "ball"]) == 3
        assert capsys.readouterr().err.startswith("internal error: shelling search returned")

    def test_zero_dimensional(self):
        data = SimplicialComplexData((0, 1), (frozenset({0}), frozenset({1})))
        assert find_shelling(data).order is not None

    def test_el_pass_implies_interval_shellable(self, tri_sq):
        # the two certifiers agree: every EL-verified lower interval has a
        # shellable order complex
        for kind in ("ek", "modified"):
            poset = gamma(kind, tri_sq)
            dual = poset.dual()
            bottom = poset.minimal_elements()[0]
            for e in poset.elements:
                if e is bottom:
                    continue
                rep = reference_el_report(kind, dual, e, bottom, tri_sq)
                assert rep.passed
                members = poset.interval_set(bottom, e)
                covers = [(a, b) for a, b in poset.covers if a in members and b in members]
                data = FinitePoset(members, covers).order_complex()
                assert find_shelling(data).order is not None


class TestBallCheck:
    def test_degree2_certified(self, deg2):
        for kind in ("ek", "modified"):
            v = ball(kind, deg2)
            assert v.verdict == "ball-certified"
            assert v.cond2 and v.cond3 and v.homology_trivial
            assert v.constructible_certificate is not None

    def test_tri_tri_refuted(self, tri_tri):
        v = ball("modified", tri_tri)
        assert v.verdict == "refuted"
        assert v.constructible_certificate is None
        assert v.cond2 and v.homology_trivial  # the obstruction is shellability

    def test_tri_sq_split_verdicts(self, tri_sq):
        v_mod = ball("modified", tri_sq)
        v_ek = ball("ek", tri_sq)
        assert v_mod.verdict == "ball-certified"
        assert v_ek.verdict == "refuted"

    def test_poset_without_least_element_is_inconclusive(self, deg2):
        # emptying the first top-degree column leaves that cell minimal, so
        # no ridge count exists: the verdict is the not-CW one, not a raise
        cplx = ek_complex(deg2)
        cplx.diffs[-1] = {pos: e for pos, e in cplx.diffs[-1].items() if pos[1] != 0}
        poset = build_gamma(cplx)
        cw = is_cw_poset(poset, "ek", deg2)
        assert not cw[0] and not cw[1]["bounded_below"]
        v = ball_check(poset, cplx, deg2, cw_result=cw)
        assert (v.verdict, v.detail) == ("inconclusive", "poset not certified as CW")
        assert v.constructible_certificate is None and not v.cond2 and not v.cond3

    def test_budget_failure_is_inconclusive(self, tri_tri, monkeypatch):
        monkeypatch.setattr(shelling, "NODE_BUDGET", 3)
        v = ball("modified", tri_tri)
        assert v.verdict == "inconclusive"
        assert v.detail == "shelling search exceeded its budget"

    def test_node_budget_failure_is_inconclusive_within_facet_budget(self, tri_tri, monkeypatch):
        # tri-tri's 12 facets once lifted the node budget; it now binds
        monkeypatch.setattr(shelling, "NODE_BUDGET", 1)
        v = ball("modified", tri_tri)
        assert v.verdict == "inconclusive"
        assert v.detail == "shelling search exceeded its budget"

    @pytest.mark.parametrize("J, verdict", [
        (power_ideal(4, 2), "inconclusive"), (named_ideal("deg2"), "refuted"),
    ], ids=["dimension-3", "dimension-2"])
    def test_unshellable_refutes_only_up_to_dimension_2(self, monkeypatch, J, verdict):
        # a search that proves a 3-dimensional order complex unshellable
        # refutes no ball, as unshellable 3-balls exist
        monkeypatch.setattr(shelling, "find_shelling", lambda data: ShellingResult(None, True))
        v = ball("ek", J)
        assert v.cond2 and v.cond3 and v.homology_trivial
        assert v.verdict == verdict
        if verdict == "inconclusive":
            assert v.detail == "no shelling, which refutes no ball in dimension 3"
        else:
            assert v.detail == "exhaustive search: the order complex is not shellable"

    def test_random_cm_ideals_certified(self):
        rng = random.Random(89)
        for _ in range(6):
            J = random_borel_ideal(rng, cm=True, max_gens=8)
            v = ball("modified", J)
            assert v.verdict == "ball-certified"
