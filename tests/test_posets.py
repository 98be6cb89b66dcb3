import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from ekcells import (
    BOTTOM,
    AdmissiblePair,
    FinitePoset,
    SimplicialComplexData,
    ek_complex,
    modified_complex,
    poset_isomorphic,
    poset_to_dot,
    random_borel_ideal,
)
from ekcells.ek import admissible_layers, kind_of
from ekcells.suite import NAMED_IDEALS, named_ideal
from ekcells.verification import check_cover_support
from conftest import b_set, gamma, ideal, mono


def chain_poset(k):
    return FinitePoset(range(k), [(i, i + 1) for i in range(k - 1)])


def crown(k):
    """k minimal elements a_i and k maximal ones b_i, b_i covering a_i and a_{i+1 mod k}."""
    return FinitePoset(
        [("a", i) for i in range(k)] + [("b", i) for i in range(k)],
        [(("a", j), ("b", i)) for i in range(k) for j in (i, (i + 1) % k)],
    )


def relabelled(p, rng):
    """An isomorphic copy of p with new labels, shuffled elements and covers."""
    order = list(p.elements)
    rng.shuffle(order)
    label = {e: ("copy", k) for k, e in enumerate(order)}
    covers = [(label[a], label[b]) for a, b in p.covers]
    rng.shuffle(covers)
    return FinitePoset([label[e] for e in order], covers)


class TestFinitePoset:
    def test_rejects_cycles(self):
        with pytest.raises(ValueError, match="cycle"):
            FinitePoset([1, 2], [(1, 2), (2, 1)])

    def test_rejects_redundant_covers(self):
        with pytest.raises(ValueError, match="implied"):
            FinitePoset([1, 2, 3], [(1, 2), (2, 3), (1, 3)])

    def test_leq_and_intervals(self):
        p = chain_poset(4)
        assert p.leq(0, 3) and not p.leq(3, 0)
        assert p.interval_set(1, 3) == (1, 2, 3)
        assert p.interval_set(3, 1) == ()

    def test_interval_of_length_two_in_gamma(self, deg2):
        g = gamma("ek", deg2)
        pair = AdmissiblePair((1, 2), mono("x3^2", 3))
        ranks = g.ranks()
        length2 = [
            e for e in g.interval_set(BOTTOM, pair) if ranks[pair] - ranks[e] == 2
        ]
        for e in length2:
            assert len(g.interval_set(e, pair)) == 4

    def test_dual_involution(self, deg2):
        g = gamma("ek", deg2)
        back = g.dual().dual()
        assert back.elements == g.elements and set(back.covers) == set(g.covers)

    def test_maximal_chains_of_chain(self):
        assert chain_poset(3).order_complex().facets == (frozenset({0, 1, 2}),)

    def test_chains_of_a_long_chain_need_no_recursion(self):
        p, chain = chain_poset(1200), tuple(range(1200))
        assert p.chains_between(0, 1199) == [chain]
        assert p.order_complex().facets == (frozenset(chain),)

    def test_three_chain_predicates(self):
        # a 3-chain has the interval [0, 2] of length 2 with only 3 elements,
        # so it is not thin; it is pure
        p = chain_poset(3)
        assert not p.is_thin()
        assert p.is_pure()

    def test_ungraded_thinness_path(self):
        # two chains of different lengths between x and z: not graded, and
        # the interval [x, v] of length 2 has only 3 elements
        p = FinitePoset(
            "xyzwv", [("x", "y"), ("y", "z"), ("x", "w"), ("w", "v"), ("v", "z")]
        )
        assert p.ranks() is None
        assert not p.is_thin()

    @pytest.mark.parametrize("name, kind", [(name, kind) for name in NAMED_IDEALS
                                            for kind in ("ek", "modified")])
    def test_without_bottom_keeps_the_covers_that_avoid_it(self, name, kind):
        # oracle for order_complex(drop_bottom=True): the order complex of the
        # poset rebuilt from the other elements and the covers that avoid BOTTOM
        p = gamma(kind, named_ideal(name))
        q = FinitePoset([e for e in p.elements if e is not BOTTOM],
                        [(x, y) for x, y in p.covers if x is not BOTTOM])
        got, want = p.order_complex(drop_bottom=True), q.order_complex()
        assert got.vertices == want.vertices
        assert len(got.facets) == len(want.facets)
        assert set(got.facets) == set(want.facets)
        # the validating constructor accepts the unchecked complex
        assert SimplicialComplexData(got.vertices, got.facets) == got


class TestOrderComplex:
    def test_antichain(self):
        p = FinitePoset(range(4), [])
        data = p.order_complex()
        assert data.faces() == [[(0,), (1,), (2,), (3,)]]

    def test_dual_has_same_complex(self, tri_sq):
        g = gamma("ek", tri_sq)
        assert set(g.order_complex().facets) == set(g.dual().order_complex().facets)

    def test_drop_bottom(self, deg2):
        g = gamma("ek", deg2)
        data = g.order_complex(drop_bottom=True)
        assert data.dim() == 2
        assert len(data.facets) == 20
        assert BOTTOM not in data.vertices

    def test_facets_incomparable(self):
        with pytest.raises(ValueError, match="incomparable"):
            SimplicialComplexData((1, 2, 3), (frozenset({0, 1}), frozenset({0})))


def rule_gamma(kind, J):
    """The cell poset derived from the pair labels alone, as a reference for
    the one read off the differential: above each pair, every plain index
    removal, plus the shifted-generator removal for each index of its B set."""
    rules = kind_of(kind)
    layers = admissible_layers(J, rules)
    covers = [(BOTTOM, pair) for pair in layers[0]]
    for layer in layers[1:]:
        for pair in layer:
            bset = b_set(J, pair.F, pair.m, rules)
            for i in pair.F:
                rest = tuple(k for k in pair.F if k != i)
                covers.append((AdmissiblePair(rest, pair.m, rules), pair))
                if i in bset:
                    covers.append((AdmissiblePair(rest, rules.shift(J, pair.m, i), rules), pair))
    return FinitePoset([BOTTOM, *(pair for layer in layers for pair in layer)], covers)


def reference_ideals():
    """The named ideals, the first 50 random Borel ideals of the structural
    suite and the 50 random Cohen-Macaulay ideals of the ball suite."""
    rng6, rng7 = random.Random(20260810), random.Random(20260811)
    return ([named_ideal(name) for name in NAMED_IDEALS]
            + [random_borel_ideal(rng6) for _ in range(50)]
            + [random_borel_ideal(rng7, cm=True) for _ in range(50)])


class TestBuildGamma:
    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_differential_support_equals_the_label_rule(self, kind):
        for J in reference_ideals():
            g, ref = gamma(kind, J), rule_gamma(kind, J)
            assert g.elements == ref.elements
            assert g.covers == ref.covers

    def test_degree2_size(self, deg2):
        g = gamma("ek", deg2)
        assert len(g) == 18
        assert len(g.minimal_elements()) == 1

    def test_principal(self):
        g = gamma("ek", ideal(1, "x1"))
        assert len(g) == 2
        assert len(g.covers) == 1

    def test_covers_match_differential(self, deg2):
        check_cover_support(gamma("ek", deg2), ek_complex(deg2))
        check_cover_support(gamma("modified", deg2), modified_complex(deg2))

    def test_worked_cover_set(self, deg2):
        g = gamma("ek", deg2)
        pair = AdmissiblePair((1, 2), mono("x3^2", 3))
        downs = set(g.down_covers(pair))
        assert downs == {
            AdmissiblePair((2,), mono("x3^2", 3)),
            AdmissiblePair((1,), mono("x3^2", 3)),
            AdmissiblePair((2,), mono("x1*x3", 3)),
            AdmissiblePair((1,), mono("x2*x3", 3)),
        }

    def test_thin_on_random_ideals(self):
        rng = random.Random(61)
        for _ in range(10):
            J = random_borel_ideal(rng)
            assert gamma("ek", J).is_thin()
            assert gamma("modified", J).is_thin()

    def test_graded_with_bottom_at_zero(self, tri_tri):
        g = gamma("modified", tri_tri)
        ranks = g.ranks()
        assert ranks[BOTTOM] == 0
        assert max(ranks.values()) == 3

    def _two_cell_shapes(self, poset):
        ranks = poset.ranks()
        return sorted(
            len(poset.down_covers(e)) for e in poset.elements if ranks[e] == 3
        )

    def test_cell_shapes_match_figures(self, tri_sq, tri_tri, deg2):
        # square-triangle ideal: the modified complex glues a square to a
        # triangle, the classical one two triangles; the two-triangle ideal
        # gives two triangles either way; the degree-2 ideal one square plus
        # two triangles
        assert self._two_cell_shapes(gamma("modified", tri_sq)) == [3, 4]
        assert self._two_cell_shapes(gamma("ek", tri_sq)) == [3, 3]
        assert self._two_cell_shapes(gamma("modified", tri_tri)) == [3, 3]
        assert self._two_cell_shapes(gamma("ek", deg2)) == [3, 3, 4]
        assert self._two_cell_shapes(gamma("modified", deg2)) == [3, 3, 4]


class TestIsomorphism:
    def test_reflexive(self, deg2):
        g = gamma("ek", deg2)
        assert poset_isomorphic(g, g)

    def test_degree2_kinds_agree(self, deg2):
        assert poset_isomorphic(
            gamma("ek", deg2), gamma("modified", deg2)
        )

    def test_degree4_kinds_differ(self, deg4):
        assert not poset_isomorphic(
            gamma("ek", deg4), gamma("modified", deg4)
        )

    def test_size_mismatch(self):
        assert not poset_isomorphic(chain_poset(3), chain_poset(4))

    def test_relabeled_chain(self):
        p = FinitePoset("xyz", [("x", "y"), ("y", "z")])
        assert poset_isomorphic(p, chain_poset(3))

    def test_refinement_ties_are_settled_by_the_search(self):
        # a 6-crown and two 3-crowns: every minimal element has two up covers
        # and every maximal one two down covers, so colour refinement cannot
        # tell them apart and the search must
        six = crown(6)
        two_threes = FinitePoset(
            [(k, e) for k in range(2) for e in crown(3).elements],
            [((k, a), (k, b)) for k in range(2) for a, b in crown(3).covers],
        )
        assert len(six) == len(two_threes) and len(six.covers) == len(two_threes.covers)
        assert not poset_isomorphic(six, two_threes)
        assert poset_isomorphic(six, relabelled(six, random.Random(3)))
        assert poset_isomorphic(two_threes, relabelled(two_threes, random.Random(4)))

    def test_long_chain_needs_no_recursion(self):
        k = sys.getrecursionlimit() + 100
        assert poset_isomorphic(chain_poset(k), relabelled(chain_poset(k), random.Random(5)))

    def test_empty_posets(self):
        assert poset_isomorphic(FinitePoset([], []), FinitePoset([], []))

    def test_import_leaves_networkx_unloaded(self):
        # the isomorphism test is in-tree: comparing the cell posets, alone
        # or under verify, loads no networkx
        import ekcells

        src = str(Path(ekcells.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from ekcells.cli import main; "
            "main(['compare', '--named', 'deg4']); "
            "main(['verify', '--named', 'deg2', '--check', 'el', '--compare-posets']); "
            "print('networkx' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        lines = out.stdout.splitlines()
        assert lines[0] == "cell posets isomorphic: False"
        assert '  "posets_isomorphic": true' in lines
        assert lines[-1] == "False"


@pytest.fixture(scope="module")
def vf2_isomorphic():
    """networkx's VF2 on the Hasse diagrams with ranks as node labels: the
    reference the in-tree test is compared against."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    def isomorphic(p1, p2):
        graphs = []
        for p in (p1, p2):
            ranks = p.ranks()
            g = nx.DiGraph()
            g.add_nodes_from(
                (p.index(e), {"rank": -1 if ranks is None else ranks[e]}) for e in p.elements
            )
            g.add_edges_from((p.index(a), p.index(b)) for a, b in p.covers)
            graphs.append(g)
        return DiGraphMatcher(
            *graphs, node_match=lambda x, y: x["rank"] == y["rank"]
        ).is_isomorphic()

    return isomorphic


@pytest.fixture(scope="module")
def gamma_pairs():
    """The ek/modified cell poset pairs of the named ideals and of 120 seeded
    random Borel ideals."""
    pairs = [(name, named_ideal(name)) for name in NAMED_IDEALS]
    rng = random.Random(20140113)
    pairs += [(f"random-{k}", random_borel_ideal(rng)) for k in range(120)]
    return [(name, gamma("ek", J), gamma("modified", J)) for name, J in pairs]


def one_cover_mutation(p, rng):
    """p with one cover (a, b) moved to (a, c), or None if no draw is a poset."""
    for _ in range(20):
        k = rng.randrange(len(p.covers))
        a, _b = p.covers[k]
        moved = p.covers[:k] + p.covers[k + 1:] + ((a, rng.choice(p.elements)),)
        try:
            return FinitePoset(p.elements, moved)
        except ValueError:
            continue
    return None


class TestIsomorphismOracle:
    def test_agrees_with_vf2_on_gamma_pairs(self, vf2_isomorphic, gamma_pairs):
        verdicts = []
        for name, g_ek, g_mod in gamma_pairs:
            verdict = poset_isomorphic(g_ek, g_mod)
            assert verdict == vf2_isomorphic(g_ek, g_mod), name
            verdicts.append(verdict)
        # both answers occur, so neither is returned blindly
        assert True in verdicts and False in verdicts

    def test_relabelled_copies_are_isomorphic(self, vf2_isomorphic, gamma_pairs):
        rng = random.Random(71)
        for name, g_ek, g_mod in gamma_pairs:
            for g in (g_ek, g_mod):
                copy = relabelled(g, rng)
                assert poset_isomorphic(g, copy), name
                assert vf2_isomorphic(g, copy), name
            assert poset_isomorphic(relabelled(g_ek, rng), relabelled(g_mod, rng)) == (
                vf2_isomorphic(g_ek, g_mod)
            ), name

    def test_agrees_with_vf2_on_one_cover_mutations(self, vf2_isomorphic, gamma_pairs):
        rng = random.Random(72)
        compared = 0
        for name, g_ek, g_mod in gamma_pairs:
            for g, other in ((g_ek, g_mod), (g_mod, g_ek)):
                mutant = one_cover_mutation(g, rng)
                if mutant is not None:
                    assert poset_isomorphic(mutant, other) == vf2_isomorphic(mutant, other), name
                    assert poset_isomorphic(mutant, g) == vf2_isomorphic(mutant, g), name
                    compared += 1
        assert compared >= 200


def walks(poset):
    """Every cover path of the poset by brute force, per start element in
    depth-first pre-order, up covers taken in element order."""
    position = {e: k for k, e in enumerate(poset.elements)}
    up = {e: [] for e in poset.elements}
    for a, b in sorted(poset.covers, key=lambda c: position[c[1]]):
        up[a].append(b)
    out = {e: [] for e in poset.elements}

    def extend(path):
        out[path[0]].append(path)
        for b in up[path[-1]]:
            extend(path + (b,))

    for e in poset.elements:
        extend((e,))
    return out


def reference_order(poset):
    """The order answers by their definitions, from the cover paths alone:
    maximal chains, chains between each comparable pair, purity (all
    maximal chains have one length), longest-path ranks (None when a cover
    skips a rank) and thinness (every comparable pair whose longest chain
    has length 2 spans 4 elements)."""
    paths = walks(poset)
    lows = {b for _, b in poset.covers}
    highs = {a for a, _ in poset.covers}
    minimal = [e for e in poset.elements if e not in lows]
    maximal_chains = [p for m in minimal for p in paths[m] if p[-1] not in highs]
    between = {}
    for a in poset.elements:
        for p in paths[a]:
            between.setdefault((a, p[-1]), []).append(p)
    rank = {
        x: max(len(p) - 1 for m in minimal for p in paths[m] if p[-1] == x)
        for x in poset.elements
    }
    graded = all(rank[b] == rank[a] + 1 for a, b in poset.covers)
    thin = all(
        sum(1 for x in poset.elements if (a, x) in between and (x, b) in between) == 4
        for (a, b), chains in between.items()
        if max(len(c) for c in chains) == 3
    )
    return {
        "maximal_chains": maximal_chains,
        "chains_between": between,
        "pure": len({len(c) for c in maximal_chains}) <= 1,
        "ranks": rank if graded else None,
        "thin": thin,
    }


def assert_matches_reference(poset):
    ref = reference_order(poset)
    index = {e: k for k, e in enumerate(poset.elements)}
    assert poset.order_complex().facets == tuple(
        frozenset(index[e] for e in chain) for chain in ref["maximal_chains"])
    for a in poset.elements:
        for b in poset.elements:
            if poset.leq(a, b):
                assert poset.chains_between(a, b) == ref["chains_between"][a, b]
            else:
                assert (a, b) not in ref["chains_between"]
    assert poset.is_pure() == ref["pure"]
    assert poset.ranks() == ref["ranks"]
    assert poset.is_thin() == ref["thin"]
    return ref


def random_reduced_dag(rng):
    """A random poset on 1-9 elements in shuffled order: the transitive
    reduction of random relations i < j."""
    n = rng.randint(1, 9)
    density = rng.choice((0.25, 0.4, 0.55))
    less = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
    for k in range(n):
        for i in range(k):
            for j in range(k + 1, n):
                if (i, k) in less and (k, j) in less:
                    less.add((i, j))
    covers = [(i, j) for i, j in less if not any((i, k) in less and (k, j) in less for k in range(n))]
    return FinitePoset(rng.sample(range(n), n), covers)


def boolean_lattice_with_long_cover():
    """B_3 plus one element p with 0hat < p < 1hat."""
    subsets = [frozenset(c) for k in range(4) for c in combinations((1, 2, 3), k)]
    covers = [(x, y) for x in subsets for y in subsets if x < y and len(y) == len(x) + 1]
    covers += [(frozenset(), "p"), ("p", frozenset((1, 2, 3)))]
    return FinitePoset(subsets + ["p"], covers)


def diamond_with_second_bottom():
    """The diamond x < a, a' < y plus a second minimal element z < y."""
    return FinitePoset("xaAyz", [("x", "a"), ("x", "A"), ("a", "y"), ("A", "y"), ("z", "y")])


class TestOrderOracle:
    def test_random_posets_match_the_definitions(self):
        rng = random.Random(97)
        posets = [random_reduced_dag(rng) for _ in range(300)]
        refs = [assert_matches_reference(p) for p in posets]
        ungraded = sum(ref["ranks"] is None for ref in refs)
        assert 60 <= ungraded <= 150
        assert sum(len(p.minimal_elements()) > 1 for p in posets) >= 60
        # both verdicts of each predicate occur on graded posets; no ungraded
        # poset is pure, and the thin ungraded ones are built below
        graded = [ref for ref in refs if ref["ranks"] is not None]
        assert {ref["thin"] for ref in graded} == {True, False}
        assert {ref["pure"] for ref in graded} == {True, False}
        assert not any(ref["pure"] for ref in refs if ref["ranks"] is None)

    @pytest.mark.parametrize("name", NAMED_IDEALS)
    def test_cell_posets_and_duals_match_the_definitions(self, name):
        for kind in ("ek", "modified"):
            g = gamma(kind, named_ideal(name))
            for p in (g, g.dual()):
                ref = assert_matches_reference(p)
                assert ref["thin"] and ref["pure"] and ref["ranks"] is not None

    def test_dual_equals_the_rebuilt_dual(self):
        # the named and ball-suite cell posets, and random posets that are
        # mostly ungraded, against the dual built from reversed covers
        rng7, rng = random.Random(20260811), random.Random(98)
        ideals = [named_ideal(name) for name in NAMED_IDEALS]
        ideals += [random_borel_ideal(rng7, cm=True) for _ in range(50)]
        posets = [gamma(kind, J) for J in ideals for kind in ("ek", "modified")]
        posets += [random_reduced_dag(rng) for _ in range(100)]
        for p in posets:
            d, ref = p.dual(), FinitePoset(p.elements, [(b, a) for a, b in p.covers])
            assert d.elements == ref.elements and d.covers == ref.covers
            assert d.ranks() == ref.ranks()
            assert (d.is_pure(), d.is_thin()) == (ref.is_pure(), ref.is_thin())
            assert d.order_complex().facets == ref.order_complex().facets
            assert all(d.leq(x, y) == ref.leq(x, y) for x in p.elements for y in p.elements)

    @pytest.mark.parametrize("build", [boolean_lattice_with_long_cover, diamond_with_second_bottom])
    def test_ungraded_but_thin(self, build):
        # a cover skips a rank, yet every interval of length 2 is a diamond
        p = build()
        ref = assert_matches_reference(p)
        assert ref["ranks"] is None and ref["thin"] and not ref["pure"]


class TestDotExport:
    def test_contains_nodes_edges_ranks(self, intro):
        g = gamma("modified", intro)
        dot = poset_to_dot(g)
        assert dot.startswith("digraph")
        assert dot.count("->") == len(g.covers)
        assert "rank=same" in dot

    def test_deterministic(self, deg2):
        g1 = poset_to_dot(gamma("ek", deg2))
        g2 = poset_to_dot(gamma("ek", deg2))
        assert g1 == g2
