import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekcells import (
    FreeComplex,
    IntegerChainComplex,
    MonomialIdeal,
    SimplicialComplexData,
    ball_check,
    build_gamma,
    ek_complex,
    frame_complex,
    homology_ranks,
    is_cw_poset,
    modified_complex,
    random_borel_ideal,
    simplicial_chain_complex,
    strand_exactness,
)
from ekcells.ek import kind_of
from ekcells.monomials import Monomial, from_squares, square_items, square_str
from ekcells.polarization import bpol_lifts, sigma_ideal, specialize_theta, specialize_theta_prime
from ekcells.suite import NAMED_IDEALS
from ekcells.topology import (
    StrandReport,
    _byte_packed,
    _exactness_defect,
    _lcm_closure,
    _mapping_cone,
    _PackedDegrees,
    _strand_walk,
    _unit_code,
    invariant_factors,
    rank_int,
    rank_mod_p,
    smith_diagonal,
    sparse_columns,
)
from conftest import ball, gamma, mono, power_ideal, resolution, stable_closures


def dense_rank_mod_p(mat, p):
    """Rank over F_p by row reduction of the dense matrix, as an oracle."""
    rows = [[x % p for x in r] for r in mat]
    rows = [r for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        pr = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            b = rows[i][col]
            if b:
                rows[i] = [(x - b * y) % p for x, y in zip(rows[i], pr)]
        rank += 1
    return rank


def random_matrices(seed, count):
    """Small integer matrices: mixed entries, unit-free ones, zero rows and
    columns, and empty shapes."""
    rng = random.Random(seed)
    for k in range(count):
        m, n = rng.randrange(0, 7), rng.randrange(0, 7)
        pool = [0, 0, 2, -2, 3, 4, -6] if k % 3 == 0 else [0, 0, 0, 1, -1, 2, -3]
        mat = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        if m and n and k % 4 == 1:
            zero_row, zero_col = rng.randrange(m), rng.randrange(n)
            mat[zero_row] = [0] * n
            for row in mat:
                row[zero_col] = 0
        yield mat, n


def dense_simplicial_complex(data):
    """The augmented simplicial chain complex as dense rows, with the faces
    enumerated from the facets, as an oracle for the column builder: the
    ranks and the boundary matrices, degree -1 first."""
    top = max(len(f) for f in data.facets)
    by_dim = [
        sorted({face for f in data.facets for face in combinations(sorted(f), d + 1)})
        for d in range(top)
    ]
    ranks = [len(layer) for layer in by_dim]
    index = [{face: k for k, face in enumerate(layer)} for layer in by_dim]
    mats = [[[1] * ranks[0]]]
    for d in range(1, top):
        mat = [[0] * ranks[d] for _ in range(ranks[d - 1])]
        for col, face in enumerate(by_dim[d]):
            for pos in range(len(face)):
                mat[index[d - 1][face[:pos] + face[pos + 1 :]]][col] = -1 if pos % 2 else 1
        mats.append(mat)
    return [1] + ranks, mats


def dense_frame_complex(cplx):
    """The augmented frame complex as dense rows, as an oracle for the column
    builder: the ranks and the boundary matrices, degree -1 first."""
    ranks = list(cplx.ranks)
    mats = [[[1] * ranks[0]]]
    for q in range(1, cplx.top + 1):
        mat = [[0] * ranks[q] for _ in range(ranks[q - 1])]
        for (i, j), (sign, _) in cplx.boundary(q).items():
            mat[i][j] = sign
        mats.append(mat)
    return [1] + ranks, mats


def dense_homology(ranks, mats):
    """(free rank, torsion) per degree from the dense Smith diagonals."""
    diag = [smith_diagonal(mat) for mat in mats] + [[]]
    return [
        (rk - len(diag[k]) - (len(diag[k - 1]) if k else 0), tuple(d for d in diag[k] if d > 1))
        for k, rk in enumerate(ranks)
    ]


def reference_lcm_lattice(gens):
    """The lcm lattice by closure on monomial objects, as an oracle."""
    lattice = set(gens)
    frontier = list(lattice)
    while frontier:
        nxt = []
        for b in frontier:
            for g in gens:
                j = b.lcm(g)
                if j not in lattice:
                    lattice.add(j)
                    nxt.append(j)
        frontier = nxt
    return lattice


def reference_strand(cplx, b):
    """The strand at b by a ``divides`` scan: the basis indices per degree,
    the dimensions (degree -1 first) and the dense augmented matrices."""
    sub = [[k for k, md in enumerate(layer) if md.divides(b)] for layer in cplx.mdegs]
    dims = [1] + [len(s) for s in sub]
    mats = [[[1] * len(sub[0])]]
    for q in range(1, cplx.top + 1):
        rows = {k: i for i, k in enumerate(sub[q - 1])}
        cols = {k: j for j, k in enumerate(sub[q])}
        mat = [[0] * len(sub[q]) for _ in sub[q - 1]]
        for (i, j), (sign, _) in cplx.boundary(q).items():
            if i in rows and j in cols:
                mat[rows[i]][cols[j]] = sign
        mats.append(mat)
    return sub, dims, mats


def reference_strand_exactness(cplx, gens, primes=()):
    """The strand oracle on monomial objects: the lattice by ``lcm`` in
    monomial order, each strand by a ``divides`` scan, dense strand matrices."""
    report = StrandReport(ok=True, strands_checked=0, primes=tuple(primes))
    for b in sorted(reference_lcm_lattice(list(gens))):
        report.strands_checked += 1
        _, dims, mats = reference_strand(cplx, b)
        for p in (0,) + report.primes:
            ranks = [rank_int(m) if p == 0 else rank_mod_p(m, p) for m in mats]
            defect = _exactness_defect(dims, ranks)
            if defect is not None:
                report.ok = False
                report.failures.append({"degree": square_str(b, cplx.squares),
                                        "field": f"F{p}" if p else "Q",
                                        "position": defect[0], "defect": defect[1]})
                break
        else:
            composite = next((q for q in range(len(mats) - 1)
                              if any(sum(x * y for x, y in zip(row, col))
                                     for row in mats[q] for col in zip(*mats[q + 1]))), None)
            if composite is not None:
                report.ok = False
                report.failures.append({"degree": square_str(b, cplx.squares), "field": "Z",
                                        "position": composite, "defect": None})
    return report


def closure_lattice(cplx, gens):
    """The strand walk's lattice, ``_lcm_closure`` on the packed degrees,
    unpacked to monomials."""
    packing = _PackedDegrees(gens, cplx.mdegs)
    return {packing.unpack(b) for b in _lcm_closure(packing.gens, packing.guard)}


def battery_complexes(J):
    """The four complexes ``full_battery`` checks strands on, with their gens."""
    cmod = modified_complex(J)
    return [
        (ek_complex(J), list(J.gens)),
        (cmod, list(bpol_lifts(J)[1].values())),
        (specialize_theta(cmod), list(J.gens)),
        (specialize_theta_prime(cmod), list(sigma_ideal(J).gens)),
    ]


# Syzygies of generators all of degree x1*x2, each summing to zero, whose
# block on the kernel of the augmentation has determinant -2, resp. 3: degree
# 0 then has homology Z/2, resp. Z/3, and the one strand is exact over Q and
# every other prime.
TWO_TORSION = [(1, -1, 0, 0), (0, 0, 1, -1), (1, 1, -1, -1)]
THREE_TORSION = [(0, -1, 0, 0, 1), (-1, 0, 1, 0, 0), (1, -1, 1, -1, 0), (-1, 1, 0, -1, 1)]


def torsion_complex(syzygies):
    """A valid ``FreeComplex`` with one strand: the generators and the
    syzygies given, all of degree x1*x2, with the ideal generated by x1*x2."""
    b, unit = Monomial((1, 1)), Monomial((0, 0))
    diff = {
        (i, j): (x, unit) for j, col in enumerate(syzygies) for i, x in enumerate(col) if x
    }
    gens, syz = len(syzygies[0]), len(syzygies)
    return FreeComplex(
        "ek", ("S", 2), [[f"g{k}" for k in range(gens)], [f"s{k}" for k in range(syz)]],
        [[b] * gens, [b] * syz], [diff],
    ), [b]


def torsion_tower():
    """``torsion_complex(THREE_TORSION)`` beside a generator h of degree x3
    and one syzygy t of degree x1*x2*x3 with boundary g0 - h: a Z-complex
    whose strand at x1*x2 has 3-torsion, below the lattice top x1*x2*x3."""
    (cplx, _), unit = torsion_complex(THREE_TORSION), Monomial((0, 0, 0))
    x12, x3 = Monomial((1, 1, 0)), Monomial((0, 0, 1))
    diff = {pos: (x, unit) for pos, (x, _) in cplx.diffs[0].items()}
    diff[0, 4], diff[5, 4] = (1, x3), (-1, x12)
    return FreeComplex(
        "ek", ("S", 3), [cplx.basis[0] + ["h"], cplx.basis[1] + ["t"]],
        [[x12] * 5 + [x3], [x12] * 4 + [x12 * x3]], [diff],
    ), [x12, x3]


def without_last_top_cell(cplx):
    """A copy without the last basis element of the top degree: still a
    Z-complex whose degrees divide, but every strand that held the cell now
    has homology one degree below it."""
    q, last = cplx.top, len(cplx.basis[-1]) - 1
    diffs = [dict(mat) for mat in cplx.diffs]
    if q:
        diffs[-1] = {(i, j): e for (i, j), e in diffs[-1].items() if j != last}
    return FreeComplex(cplx.kind, cplx.ring, [*cplx.basis[:-1], cplx.basis[-1][:-1]],
                       [*cplx.mdegs[:-1], cplx.mdegs[-1][:-1]], diffs)


def moved_to_second_column(cplx):
    """A copy with one top cell's degree moved from some x[i,1] to x[i,2]:
    its theta degree stays, but a row degree of its boundary stops dividing."""
    ring = cplx.squares
    col = len(cplx.basis[-1]) - 1
    md = cplx.mdegs[-1][col]
    i = next(i for (i, j), e in square_items(md, ring) if j == 1 and e and (i, 2) in ring)
    moved = md.div(from_squares(ring, [(i, 1)])) * from_squares(ring, [(i, 2)])
    mdegs = [list(layer) for layer in cplx.mdegs]
    mdegs[-1][col] = moved
    return FreeComplex(cplx.kind, cplx.ring, cplx.basis, mdegs, cplx.diffs)


def without_cells(cplx, drop):
    """A copy without the basis elements (q, label) that ``drop`` names, and
    without every differential entry into or out of them."""
    keep = [[k for k, label in enumerate(layer) if not drop(q, label)]
            for q, layer in enumerate(cplx.basis)]
    index = [{k: new for new, k in enumerate(ks)} for ks in keep]
    diffs = [{(index[q][i], index[q + 1][j]): entry for (i, j), entry in mat.items()
              if i in index[q] and j in index[q + 1]}
             for q, mat in enumerate(cplx.diffs)]
    return FreeComplex(cplx.kind, cplx.ring,
                       [[layer[k] for k in ks] for layer, ks in zip(cplx.basis, keep)],
                       [[layer[k] for k in ks] for layer, ks in zip(cplx.mdegs, keep)], diffs)


def with_generators_reversed(cplx):
    """A copy with the basis of degree 0 in reverse order: the same complex."""
    last = len(cplx.basis[0]) - 1
    diffs = [{(last - i, j): entry for (i, j), entry in cplx.diffs[0].items()}, *cplx.diffs[1:]]
    return FreeComplex(cplx.kind, cplx.ring, [cplx.basis[0][::-1], *cplx.basis[1:]],
                       [cplx.mdegs[0][::-1], *cplx.mdegs[1:]], diffs)


def with_isolated_cell(cplx, degree):
    """A copy with one more cell of degree 1 and the given degree, in no
    differential entry: a cycle that bounds nothing."""
    basis = [cplx.basis[0], cplx.basis[1] + ["u"], *cplx.basis[2:]]
    mdegs = [cplx.mdegs[0], cplx.mdegs[1] + [degree], *cplx.mdegs[2:]]
    return FreeComplex(cplx.kind, cplx.ring, basis, mdegs, cplx.diffs)


def widened(cplx, gens):
    """The modified complex and its generators in a ring with one more square,
    (9, 9), beyond the ring's n and d, and one top degree times x[9,9]."""
    squares = cplx.squares
    ring = squares + ((9, 9),)

    def widen(m):
        factors = [s for s, e in square_items(m, squares) for _ in range(e)]
        return from_squares(ring, factors)

    wide = FreeComplex(
        cplx.kind, cplx.ring[:3] + (ring,), cplx.basis,
        [[widen(md) for md in layer] for layer in cplx.mdegs],
        [{pos: (sign, widen(c)) for pos, (sign, c) in mat.items()} for mat in cplx.diffs],
    )
    wide.mdegs[-1][0] = wide.mdegs[-1][0] * from_squares(ring, [(9, 9)])
    return wide, [widen(g) for g in gens]


def walk_cases():
    """The named ideals and (x1..x3)^2..4, (x1..x4)^2..3, both kinds, with
    their generators."""
    ideals = [make() for make in NAMED_IDEALS.values()]
    ideals += [power_ideal(n, d) for n, ds in ((3, (2, 3, 4)), (4, (2, 3))) for d in ds]
    for J in ideals:
        yield ek_complex(J), list(J.gens)
        yield modified_complex(J), list(bpol_lifts(J)[1].values())


CIRCLE = SimplicialComplexData(
    (0, 1, 2), (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
)

# the 6-vertex triangulation of RP^2
RP2 = SimplicialComplexData(
    tuple(range(6)),
    tuple(frozenset(f) for f in (
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    )),
)

class TestExactLinearAlgebra:
    def test_rank(self):
        assert rank_int([[1, 2], [2, 4]]) == 1
        assert rank_int([[1, 0], [0, 1]]) == 2
        assert rank_int([[0, 0]]) == 0

    def test_rank_matches_mod_p_generically(self):
        rng = random.Random(71)
        for _ in range(50):
            mat = [[rng.randrange(-2, 3) for _ in range(5)] for _ in range(4)]
            r = rank_int(mat)
            assert rank_mod_p(mat, 32003) == r

    def test_rank_mod_2_can_drop(self):
        assert rank_int([[2]]) == 1
        assert rank_mod_p([[2]], 2) == 0

    def test_smith_diagonal(self):
        assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
        assert smith_diagonal([[0, 0], [0, 0]]) == []
        assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]

    def test_sparse_kernel_matches_dense_smith(self):
        shapes = set()
        for mat, n in random_matrices(2024, 400):
            cols = sparse_columns(mat, n)
            assert invariant_factors(cols) == smith_diagonal(mat), mat
            assert cols == sparse_columns(mat, n)  # the input is left as it was
            shapes.add((len(mat), n))
        assert (0, 0) in shapes and any(m and not n for m, n in shapes)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=6)))
    def test_sparse_kernel_matches_dense_smith_on_drawn_matrices(self, mat):
        assert invariant_factors(sparse_columns(mat)) == smith_diagonal(mat)

    def test_unit_free_block_keeps_its_invariants(self):
        assert invariant_factors(sparse_columns([[2, 4], [6, 8]])) == [2, 4]
        assert invariant_factors(sparse_columns([[2, 3]])) == [1]
        assert invariant_factors(sparse_columns([[1, 0, 0], [0, 2, 0], [0, 0, 0]])) == [1, 2]
        assert invariant_factors([]) == [] and invariant_factors([{}, {}]) == []

    def test_ranks_mod_p_match_dense_elimination(self):
        for mat, n in random_matrices(2025, 300):
            for p in (2, 3, 5):
                assert rank_mod_p(mat, p) == dense_rank_mod_p(mat, p), (mat, p)

    def test_divisibility_chain(self):
        rng = random.Random(73)
        for _ in range(30):
            mat = [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(4)]
            diag = smith_diagonal(mat)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0


class TestHomology:
    def test_zero_complex(self):
        cc = IntegerChainComplex(0, [0], [])
        assert homology_ranks(cc) == [(0, ())]

    def test_torsion_detection(self):
        # Z --2--> Z has homology Z/2 in the bottom degree
        cc = IntegerChainComplex(0, [1, 1], [[{0: 2}]])
        assert homology_ranks(cc) == [(0, (2,)), (0, ())]

    def test_composite_check(self):
        cc = IntegerChainComplex(0, [1, 1, 1], [[{0: 1}], [{0: 1}]])
        with pytest.raises(ValueError, match="compose"):
            homology_ranks(cc)

    @pytest.mark.parametrize("ranks, cols, message", [
        ([1, 1], [], "matrix count"),
        ([1, 1, 1], [[{0: 1}]], "matrix count"),
        ([1, 2], [[{0: 1}]], "has 1 columns, not 2"),
        ([2, 1], [[{0: 1}], [{0: 1}]], "matrix count"),
        ([1, 1], [[{0: 1}, {}]], "has 2 columns, not 1"),
        ([1, 2], [[{0: 1}, {1: 1}]], "row outside 0..0"),
        ([2, 1], [[{-1: 1}]], "row outside 0..1"),
    ], ids=["no-matrix", "one-short", "one-column-short", "one-extra",
            "one-column-over", "row-too-high", "row-negative"])
    def test_malformed_complex_is_rejected(self, ranks, cols, message):
        with pytest.raises(ValueError, match=message):
            IntegerChainComplex(0, ranks, cols)

    def test_circle(self):
        hom = homology_ranks(simplicial_chain_complex(CIRCLE))
        assert hom == [(0, ()), (0, ()), (1, ())]

    def test_projective_plane_has_two_torsion(self):
        hom = homology_ranks(simplicial_chain_complex(RP2))
        assert hom == [(0, ()), (0, ()), (0, (2,)), (0, ())]

    def test_ball_check_on_cube_of_maximal_ideal(self):
        # (x1..x4)^3, 336 facets per kind: too large for the dense elimination in tier-1
        J = power_ideal(4, 3)
        for kind in ("ek", "modified"):
            verdict = ball(kind, J)
            assert verdict.verdict == "ball-certified" and verdict.homology_trivial

    def test_triangle_is_contractible(self):
        triangle = SimplicialComplexData((0, 1, 2), (frozenset({0, 1, 2}),))
        assert homology_ranks(simplicial_chain_complex(triangle)) == [(0, ())] * 4

    def test_augmented_frame_of_degree2(self, deg2):
        cc = frame_complex(ek_complex(deg2))
        assert cc.bottom == -1 and cc.ranks[0] == 1
        assert all(b == 0 and not t for b, t in homology_ranks(cc))

    def test_wedge_of_triangles_is_contractible(self, tri_tri):
        # the two-triangle complex fails the ball check, yet its reduced
        # homology vanishes; only the shelling search detects it
        cc = frame_complex(modified_complex(tri_tri))
        assert all(b == 0 and not t for b, t in homology_ranks(cc))

    def test_cellular_and_barycentric_homology_agree(self):
        # the frame complex (differential signs) and the order complex of the
        # cell poset (chain enumeration) are independent routes to the same
        # reduced homology; ball_check reads it off the frame alone
        rng = random.Random(20260811)  # the ideals of the CM ball suite
        ideals = [J() for J in NAMED_IDEALS.values()]
        ideals += [random_borel_ideal(rng, cm=True) for _ in range(50)]
        ideals += [power_ideal(n, d) for n, d in ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3))]
        for J in ideals:
            for kind in ("ek", "modified"):
                cplx = resolution(kind, J)
                cellular = homology_ranks(frame_complex(cplx))
                data = build_gamma(cplx).order_complex(drop_bottom=True)
                barycentric = homology_ranks(simplicial_chain_complex(data))
                assert cellular == barycentric
                assert all(x == (0, ()) for x in cellular)

    @pytest.mark.parametrize("name, kind, verdict", [
        ("deg2", "ek", "ball-certified"), ("deg2", "modified", "ball-certified"),
        ("tri-tri", "ek", "refuted"), ("tri-tri", "modified", "refuted"),
        ("tri-sq", "ek", "refuted"), ("tri-sq", "modified", "ball-certified"),
    ])
    def test_ball_check_builds_no_simplicial_chain_complex(self, monkeypatch, name, kind, verdict):
        def refuse(data):
            raise AssertionError("ball_check built a simplicial chain complex")

        monkeypatch.setattr("ekcells.topology.simplicial_chain_complex", refuse)
        v = ball(kind, NAMED_IDEALS[name]())
        assert (v.verdict, v.cond2, v.cond3, v.homology_trivial) == (verdict, True, True, True)


class TestColumnBuilders:
    """The sparse-column chain complexes against dense rows built on their
    own, and their homology against the dense Smith diagonal."""

    def check(self, cc, ranks, mats):
        assert cc.ranks == ranks and cc.mats == mats
        assert homology_ranks(cc) == dense_homology(ranks, mats)

    @pytest.mark.parametrize("data", [CIRCLE, RP2], ids=["circle", "rp2"])
    def test_simplicial_complexes(self, data):
        self.check(simplicial_chain_complex(data), *dense_simplicial_complex(data))

    @pytest.mark.parametrize("name", list(NAMED_IDEALS))
    @pytest.mark.parametrize("kind", ["ek", "modified"])
    def test_named_ideals(self, name, kind):
        self.check_ideal(NAMED_IDEALS[name](), kind)

    def test_random_borel_ideals(self):
        rng = random.Random(6061)
        for _ in range(6):
            J = random_borel_ideal(rng, max_gens=8)
            for kind in ("ek", "modified"):
                self.check_ideal(J, kind)

    def check_ideal(self, J, kind):
        """The order complex of the cell poset and the frame complex."""
        data = gamma(kind, J).order_complex(drop_bottom=True)
        self.check(simplicial_chain_complex(data), *dense_simplicial_complex(data))
        cplx = (ek_complex if kind == "ek" else modified_complex)(J)
        self.check(frame_complex(cplx), *dense_frame_complex(cplx))


class TestStrands:
    def test_degree2_both_kinds(self, deg2):
        assert strand_exactness(ek_complex(deg2), list(deg2.gens), primes=(2, 3)).ok
        assert strand_exactness(modified_complex(deg2), list(bpol_lifts(deg2)[1].values())).ok

    def test_generator_strand_is_trivial(self, intro):
        report = strand_exactness(ek_complex(intro), list(intro.gens))
        assert report.ok
        # the lattice contains at least the three generator degrees
        assert report.strands_checked >= 3

    def test_corrupted_sign_detected(self, deg2):
        cplx = ek_complex(deg2)
        pos, (sign, coeff) = next(iter(sorted(cplx.diffs[0].items())))
        cplx.diffs[0][pos] = (-sign, coeff)
        report = strand_exactness(cplx, list(deg2.gens))
        assert not report.ok
        # the first strand holding the flipped column passes its ranks, but the
        # augmentation no longer kills that column's boundary; a larger strand
        # fails over Q
        assert report.first_failure()["field"] == "Z"
        assert report.first_failure()["position"] == 0
        assert any(f["field"] == "Q" and f["defect"] != 0 for f in report.failures)
        assert report == reference_strand_exactness(cplx, list(deg2.gens))

    def test_random_ideals(self):
        rng = random.Random(79)
        for _ in range(10):
            J = random_borel_ideal(rng, max_gens=8)
            assert strand_exactness(ek_complex(J), list(J.gens)).ok

    def test_packed_oracle_matches_object_oracle(self):
        # seeded random Borel ideals, all four battery complexes and a copy of
        # each with one differential sign flipped
        rng = random.Random(8080)
        failing = 0
        for _ in range(10):
            J = random_borel_ideal(rng, max_gens=8)
            for cplx, gens in battery_complexes(J):
                assert closure_lattice(cplx, gens) == reference_lcm_lattice(gens)
                for corrupt in (False, True):
                    if corrupt:
                        if not cplx.diffs:
                            break
                        q = rng.randrange(len(cplx.diffs))
                        pos = rng.choice(sorted(cplx.diffs[q]))
                        sign, coeff = cplx.diffs[q][pos]
                        cplx.diffs[q][pos] = (-sign, coeff)
                    for primes in ((2, 3), (), (3,)):
                        got = strand_exactness(cplx, gens, primes=primes)
                        want = reference_strand_exactness(cplx, gens, primes=primes)
                        assert got == want, primes
                    failing += not got.ok
        assert failing >= 10, failing

    @pytest.mark.parametrize("syzygies, prime", [(TWO_TORSION, 2), (THREE_TORSION, 3)])
    def test_strand_exact_over_q_but_not_over_one_prime(self, syzygies, prime):
        cplx, gens = torsion_complex(syzygies)
        report = strand_exactness(cplx, gens, primes=(2, 3))
        assert report == reference_strand_exactness(cplx, gens, primes=(2, 3))
        assert report.failures == [
            {"degree": "x1*x2", "field": f"F{prime}", "position": 0, "defect": 1}
        ]
        other = 5 - prime
        for primes in ((), (other,), (other, 5)):
            report = strand_exactness(cplx, gens, primes=primes)
            assert report.ok and report.strands_checked == 1
            assert report == reference_strand_exactness(cplx, gens, primes=primes)

    @pytest.mark.parametrize("d, width", [(7, 4), (8, 5)])
    def test_field_width_steps_with_the_exponent(self, d, width):
        # (x1, x2)^7 takes exponents up to 7, which fit three bits plus the
        # guard; (x1, x2)^8 takes 8 and needs four
        J = power_ideal(2, d)
        cek = ek_complex(J)
        assert _PackedDegrees(list(J.gens), cek.mdegs).width == width
        for cplx, gens in battery_complexes(J)[:2]:
            got = strand_exactness(cplx, gens, primes=(2, 3))
            want = reference_strand_exactness(cplx, gens, primes=(2, 3))
            assert got.ok and got == want
            assert closure_lattice(cplx, gens) == reference_lcm_lattice(gens)
        # lcm(x1^(d-i) x2^i, x1^(d-j) x2^j) = x1^(d-i) x2^j for i <= j
        assert strand_exactness(cek, list(J.gens)).strands_checked == (d + 1) * (d + 2) // 2

    @pytest.mark.parametrize("power", [10**9, 10**20])
    def test_exponents_wider_than_a_machine_word(self, power):
        # (x1, x2^power): x2's field is as wide as power, past 64 bits at 10^20
        J = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, power))])
        cplx, gens = ek_complex(J), list(J.gens)
        assert closure_lattice(cplx, gens) == reference_lcm_lattice(gens)
        got = strand_exactness(cplx, gens, primes=(2, 3))
        assert got.ok and got.strands_checked == 3
        assert got == reference_strand_exactness(cplx, gens, primes=(2, 3))
        # a failure is named by its exponents
        broken = strand_exactness(without_last_top_cell(cplx), gens, primes=(2, 3))
        assert broken.failures == [
            {"degree": f"x1*x2^{power}", "field": "Q", "position": 0, "defect": 1}]

    def test_variable_in_no_generator_never_divides(self, deg2):
        # the modified complex in a ring with one more square, (9, 9), that no
        # generator uses, and one multidegree times x[9,9]
        cplx, gens = widened(modified_complex(deg2), list(bpol_lifts(deg2)[1].values()))
        packing = _PackedDegrees(gens, cplx.mdegs)
        md, G = packing.layers[-1][0], packing.guard
        lattice = _lcm_closure(packing.gens, G)
        assert lattice and all(((b | G) - md) & G != G for b in lattice)
        got = strand_exactness(cplx, gens, primes=(2, 3))
        assert not got.ok and got == reference_strand_exactness(cplx, gens, primes=(2, 3))

    def test_packing_unpacks_divides_and_keeps_monomial_order(self, deg2):
        # the walk's packing: each degree unpacks to itself, the guard test is
        # divisibility, packed ints order as monomials do, and there is one
        # field per distinct exponent column
        rng = random.Random(3131)
        cases = [case for _ in range(5)
                 for case in battery_complexes(random_borel_ideal(rng, max_gens=8))]
        J = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 10**20))])
        cases += [(ek_complex(J), list(J.gens)),
                  widened(modified_complex(deg2), list(bpol_lifts(deg2)[1].values()))]
        for cplx, gens in cases:
            packing = _PackedDegrees(gens, cplx.mdegs)
            monos = list(gens) + [md for layer in cplx.mdegs for md in layer]
            packed = packing.gens + [x for layer in packing.layers for x in layer]
            G = packing.guard
            assert [packing.unpack(x) for x in packed] == monos
            assert not any(x & G for x in packed)
            columns = list(zip(*(m.exps for m in monos)))
            assert len(packing.shifts) == len(set(columns))
            pairs = [rng.sample(range(len(monos)), 2) for _ in range(200)]
            for i, j in pairs:
                assert (packed[i] < packed[j]) == (monos[i] < monos[j])
                assert (((packed[j] | G) - packed[i]) & G == G) == monos[i].divides(monos[j])

    def test_cone_packing_is_byte_wide_and_divides(self, deg2):
        # the cone's packing: one field of whole bytes per variable, one byte
        # below exponent 128; the guard test is divisibility, and a quotient
        # is one variable to the first power exactly when it is a single bit
        # that is a field's low bit.  The units' compact code closes to the
        # lcm lattice of the units
        rng = random.Random(3232)
        cases = [case for _ in range(5)
                 for case in battery_complexes(random_borel_ideal(rng, max_gens=8))]
        cases.append(widened(modified_complex(deg2), list(bpol_lifts(deg2)[1].values())))
        for power in (127, 128, 10**20):
            J = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, power))])
            cases.append((ek_complex(J), list(J.gens)))
        for cplx, _ in cases:
            units = cplx.mdegs[0]
            assert len(_lcm_closure(*_unit_code(units))) == len(reference_lcm_lattice(units))
            layers, G, low = _byte_packed(cplx.mdegs)
            monos = [md for layer in cplx.mdegs for md in layer]
            packed = [x for layer in layers for x in layer]
            n, top = len(monos[0].exps), max(e for m in monos for e in m.exps)
            width = 8 * (1 if top < 128 else 2 if top < 2**15 else 9)
            assert low.bit_count() == n and G == low << (width - 1)
            assert (G & -G).bit_length() == width
            assert not any(x & G for x in packed)
            for _ in range(200):
                i, j = rng.sample(range(len(monos)), 2)
                divides = ((packed[j] | G) - packed[i]) & G == G
                assert divides == monos[i].divides(monos[j])
                x = packed[j] - packed[i]
                step = divides and sum(monos[j].exps) == sum(monos[i].exps) + 1
                assert (divides and x & low and not x & (x - 1)) == step

    def test_row_degree_that_does_not_divide(self, deg2):
        # off a Z-complex, a strand need not be a subcomplex
        cplx = ek_complex(deg2)
        (row, _), _ = next(iter(sorted(cplx.diffs[0].items())))
        cplx.mdegs[0][row] = cplx.mdegs[0][row] * Monomial.variable(deg2.n, 1) ** 3
        assert strand_exactness(cplx, list(deg2.gens)) == reference_strand_exactness(
            cplx, list(deg2.gens))

    def test_strand_counts_on_cube_of_maximal_ideal(self):
        J = power_ideal(4, 3)
        assert strand_exactness(ek_complex(J), list(J.gens)).strands_checked == 241
        gens = list(bpol_lifts(J)[1].values())
        assert strand_exactness(modified_complex(J), gens).strands_checked == 612

    def test_exact_at_degrees_outside_the_lattice(self):
        # the oracle restricts to the lcm lattice; exactness in fact holds at
        # every multidegree, including those outside the ideal
        from itertools import product

        from ekcells.topology import rank_int

        rng = random.Random(4242)
        for _ in range(3):
            J = random_borel_ideal(rng, max_n=3, max_deg=3, max_gens=6)
            cplx = ek_complex(J)
            bound = J.max_deg() + 1
            for exps in product(range(bound + 1), repeat=J.n):
                b = Monomial(exps)
                sub = [
                    [k for k, md in enumerate(layer) if md.divides(b)]
                    for layer in cplx.mdegs
                ]
                dims = [1 if b in J else 0] + [len(s) for s in sub]
                aug = [[1] * len(sub[0])] if b in J else [[0] * len(sub[0])]
                mats = [aug]
                for q in range(1, cplx.top + 1):
                    rows = {k: i for i, k in enumerate(sub[q - 1])}
                    mat = [[0] * len(sub[q]) for _ in sub[q - 1]]
                    for j, col in enumerate(sub[q]):
                        for (i, jj), (sign, _) in cplx.boundary(q).items():
                            if jj == col and i in rows:
                                mat[rows[i]][j] = sign
                    mats.append(mat)
                ranks = [rank_int(m) for m in mats]
                for t in range(len(dims)):
                    into = ranks[t] if t < len(ranks) else 0
                    outof = ranks[t - 1] if t >= 1 else 0
                    assert dims[t] - into - outof == 0, (J, b, t)


class TestLatticeWalk:
    """The strand oracle's walk over the lcm lattice, against the lattice by
    monomial lcms and the object oracle."""

    @staticmethod
    def check_walk(cplx, gens):
        """Checks the walk's lattice; returns its report over Q, F_2 and F_3."""
        assert closure_lattice(cplx, gens) == reference_lcm_lattice(list(gens))
        return _strand_walk(cplx, gens, (2, 3))

    def test_squarefree_or_join_equals_swar_and_every_subset_lcm(self):
        # exponents 0 and 1 coded 1 bit wide with no guard, as the cone codes
        # its units, or packed 2 bits wide join by OR; packed 3 bits wide, the
        # same exponents take the SWAR join
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(1, 8)
            gens = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 7))]
            closures, codes = [], []
            for width in (1, 2, 3):
                shifts = [width * f for f in range(n)][::-1]
                guard = sum(1 << (s + width - 1) for s in shifts) if width > 1 else 0
                packed = [sum(e << s for e, s in zip(exps, shifts)) for exps in gens]
                closure = _lcm_closure(packed, guard)
                assert not any(x & guard for x in closure)
                closures.append({tuple(x >> s & 1 for s in shifts) for x in closure})
                codes.append(packed)
            subsets = {tuple(map(max, zip(*combo)))
                       for k in range(1, len(gens) + 1) for combo in combinations(gens, k)}
            assert closures[0] == closures[1] == closures[2] == subsets, gens
            assert _unit_code([Monomial(g) for g in gens]) == (codes[0], 0)

    def test_resolutions_pass_and_copies_without_a_top_cell_fail(self):
        # each resolution, and a copy without one top cell that stays a
        # Z-complex, so every strand that held the cell fails
        failing = 0
        for cplx, gens in walk_cases():
            assert self.check_walk(cplx, gens).ok
            report = self.check_walk(without_last_top_cell(cplx), gens)
            assert report.failures and {f["field"] for f in report.failures} == {"Q"}
            failing += len(report.failures)
        assert failing >= 100, failing

    def test_random_battery_complexes(self):
        # the four battery complexes of seeded random Borel ideals, a copy
        # without one top cell, one with a sign flipped (no Z-complex) and the
        # generators with a non-minimal one added, whose strand the walk
        # reaches by a join
        rng = random.Random(1515)
        for _ in range(20):
            J = random_borel_ideal(rng, max_gens=8)
            for cplx, gens in battery_complexes(J):
                extra = gens + [gens[0] * Monomial.variable(gens[0].n, 1)]
                cases = [(cplx, gens), (without_last_top_cell(cplx), gens), (cplx, extra)]
                if cplx.diffs:
                    flipped = FreeComplex(cplx.kind, cplx.ring, cplx.basis, cplx.mdegs,
                                          [dict(mat) for mat in cplx.diffs])
                    pos = rng.choice(sorted(flipped.diffs[-1]))
                    sign, coeff = flipped.diffs[-1][pos]
                    flipped.diffs[-1][pos] = (-sign, coeff)
                    cases.append((flipped, gens))
                for case, case_gens in cases:
                    got = self.check_walk(case, case_gens)
                    assert got == reference_strand_exactness(case, case_gens, primes=(2, 3))
                    assert got == strand_exactness(case, case_gens, primes=(2, 3))

    def test_torsion_below_the_lattice_top(self):
        # the lattice is x3 < x1*x2 < x1*x2*x3: the 3-torsion at x1*x2 stays
        # in the top strand, which adds h and t
        cplx, gens = torsion_tower()
        report = _strand_walk(cplx, gens, (2, 3))
        assert report == reference_strand_exactness(cplx, gens, primes=(2, 3))
        assert report.failures == [
            {"degree": "x1*x2", "field": "F3", "position": 0, "defect": 1},
            {"degree": "x1*x2*x3", "field": "F3", "position": 0, "defect": 1},
        ]
        assert report == strand_exactness(cplx, gens, primes=(2, 3))
        for primes in ((), (2,), (2, 5)):
            report = strand_exactness(cplx, gens, primes=primes)
            assert report.ok and report.strands_checked == 3
            assert report == reference_strand_exactness(cplx, gens, primes=primes)

    @pytest.mark.parametrize("syzygies, prime", [(TWO_TORSION, 2), (THREE_TORSION, 3)],
                             ids=["2-torsion", "3-torsion"])
    def test_every_prime_is_read_off_one_smith_form(self, monkeypatch, syzygies, prime):
        # the one strand is the whole frame, whose syzygy map has one
        # invariant that is no unit, the prime: each map is ranked once, for
        # however many primes, and only F_prime sees homology
        from ekcells import topology

        cplx, gens = torsion_complex(syzygies)
        frame = frame_complex(cplx).cols
        assert invariant_factors(frame[1]) == [1] * (len(syzygies) - 1) + [prime]
        calls = []
        kernel = topology.invariant_factors
        monkeypatch.setattr(topology, "invariant_factors",
                            lambda cols: calls.append(1) or kernel(cols))
        for primes in ((), (5,), (prime,), (5, prime), (prime, 5), (2, 3), (3, 2)):
            calls.clear()
            got = _strand_walk(cplx, gens, primes)
            assert len(calls) == len(frame) and got.strands_checked == 1
            assert got.failures == ([{"degree": "x1*x2", "field": f"F{prime}", "position": 0,
                                      "defect": 1}] if prime in primes else [])
            assert got == reference_strand_exactness(cplx, gens, primes)

    def test_generators_off_the_complex_degrees(self):
        # the resolution of (x1^2, x1*x2, x2^2), walked over generators times
        # x3 and x4: every lcm lies in the ideal, so each strand is exact, but
        # the strand at x1^2*x2*x3 leaves out the cells of degree x1*x2*x4
        J = MonomialIdeal(4, [mono(t, 4) for t in ("x1^2", "x1*x2", "x2^2")])
        gens = [mono(t, 4) for t in ("x1^2", "x1*x2*x4", "x2^2*x3", "x1*x2*x3")]
        cplx = ek_complex(J)
        report = self.check_walk(cplx, gens)
        assert report.ok and report.strands_checked == len(reference_lcm_lattice(gens))
        assert report == strand_exactness(cplx, gens, (2, 3))
        # a generator of degree x3, which no cell divides, fails at the
        # augmentation, and so does every lcm with it outside the ideal
        report = self.check_walk(cplx, gens + [mono("x3", 4)])
        assert report.failures[0] == {"degree": "x3", "field": "Q", "position": -1, "defect": 1}
        assert report == reference_strand_exactness(cplx, gens + [mono("x3", 4)], (2, 3))

    def test_one_generator_and_none(self):
        # a complex of one cell: its one strand is exact; with no generators
        # the lattice is empty and nothing fails
        J = MonomialIdeal(3, [mono("x1^3", 3)])
        cplx = ek_complex(J)
        for gens, count in (([], 0), (list(J.gens), 1)):
            report = self.check_walk(cplx, gens)
            assert report.ok and report.strands_checked == count
            assert report == reference_strand_exactness(cplx, gens, (2, 3))

    def test_strand_counts_on_fourth_power_of_maximal_ideal(self):
        J = power_ideal(4, 4)
        assert strand_exactness(ek_complex(J), list(J.gens)).strands_checked == 590
        gens = list(bpol_lifts(J)[1].values())
        assert strand_exactness(modified_complex(J), gens).strands_checked == 2854

    def test_cone_ranks_nothing_on_fourth_power_of_maximal_ideal(self, monkeypatch):
        # every battery complex is certified on its mapping cone, with no
        # call to the rank kernel
        from ekcells import topology

        calls = []
        kernel = topology.invariant_factors
        monkeypatch.setattr(topology, "invariant_factors",
                            lambda cols: calls.append(1) or kernel(cols))
        for cplx, gens in battery_complexes(power_ideal(4, 4)):
            assert strand_exactness(cplx, gens, (2, 3)).ok
        assert calls == []
        # the walk goes through the patched kernel
        cplx, gens = torsion_complex(TWO_TORSION)
        assert not strand_exactness(cplx, gens, (2,)).ok and calls

    @pytest.mark.parametrize("mutation", ["top cell removed", "sign flipped"])
    def test_failing_battery_complexes_of_the_cube(self, mutation):
        # (x1..x4)^3: the walk alone names these failures; primes outside
        # {2, 3} go the same way as the rest
        for cplx, gens in battery_complexes(power_ideal(4, 3)):
            if mutation == "top cell removed":
                cplx = without_last_top_cell(cplx)
            else:
                diffs = [dict(mat) for mat in cplx.diffs]
                pos = min(diffs[-1])
                sign, coeff = diffs[-1][pos]
                diffs[-1][pos] = (-sign, coeff)
                cplx = FreeComplex(cplx.kind, cplx.ring, cplx.basis, cplx.mdegs, diffs)
            for primes in ((), (2, 3), (5,)):
                got = strand_exactness(cplx, gens, primes)
                assert not got.ok
                assert got == reference_strand_exactness(cplx, gens, primes), primes

    @staticmethod
    def resolution_cases():
        """The walk cases and the four battery complexes of seeded random
        Borel ideals: resolutions of their minimal generators."""
        yield from walk_cases()
        rng = random.Random(1919)
        for _ in range(10):
            yield from battery_complexes(random_borel_ideal(rng, max_gens=8))

    def test_walk_ignores_generator_order_repeats_and_redundant_lcms(self):
        # the lattice and the report depend on the set the generators span:
        # the same for the generators shuffled, repeated, or joined by an lcm
        # of two of them, which is no minimal generator
        rng = random.Random(2020)
        for cplx, gens in self.resolution_cases():
            want = _strand_walk(cplx, gens, (2, 3))
            lattice = closure_lattice(cplx, gens)
            shuffled = rng.sample(gens, len(gens))
            for variant in (shuffled, gens + gens[::2], gens + [gens[0].lcm(gens[-1])]):
                assert closure_lattice(cplx, variant) == lattice
                assert _strand_walk(cplx, variant, (2, 3)) == want


class TestMappingCone:
    """The mapping-cone certificate against the lattice walk and the object
    oracle, and each of its conditions broken on its own."""

    @staticmethod
    def certified_cases():
        """The four battery complexes of the named ideals, (x1..x3)^2..4,
        (x1..x4)^2..3, (x1..x5)^2 and seeded random Borel ideals, and the ek
        complexes of the stable closures that are not Borel fixed."""
        ideals = [make() for make in NAMED_IDEALS.values()]
        ideals += [power_ideal(n, d) for n, ds in ((3, (2, 3, 4)), (4, (2, 3)), (5, (2,)))
                   for d in ds]
        rng = random.Random(2121)
        ideals += [random_borel_ideal(rng, max_gens=8) for _ in range(10)]
        for J in ideals:
            yield from battery_complexes(J)
        closures = sorted((J for J in stable_closures() if not J.is_borel_fixed()), key=repr)
        assert len(closures) == 14
        for J in closures:
            yield ek_complex(J), list(J.gens)

    def test_routes_match_the_object_oracle(self):
        for cplx, gens in self.certified_cases():
            for primes in ((), (2, 3)):
                cone = _mapping_cone(cplx, gens, primes)
                assert cone is not None, (cplx.kind, gens)
                assert cone == strand_exactness(cplx, gens, primes)
                assert cone == _strand_walk(cplx, gens, primes)
                assert cone == reference_strand_exactness(cplx, gens, primes)
        # (x1..x4)^4 against the walk alone: its object oracle takes seconds
        for cplx, gens in battery_complexes(power_ideal(4, 4)):
            for primes in ((), (2, 3)):
                assert _mapping_cone(cplx, gens, primes) == _strand_walk(cplx, gens, primes)

    @pytest.mark.parametrize("mutation, ok", [
        # (a) holds by construction, as a group is read off the rows: with
        # the generators in reverse order a cell lands in the group of a
        # shifted generator, where its cube breaks
        ("(a) generators reversed", True),
        ("(b) top cell removed", False),
        ("(b) coefficient of two variables", False),
        ("(c) cube of the last generator cut to its vertex", False),
        ("(d) sign flipped", False),
        ("row degree does not divide", False),
        # every strand of a resolution is exact, on any lattice
        ("gens not degree 0", True),
        ("cell with no boundary", False),
    ])
    def test_each_broken_condition_falls_back_to_the_walk(self, monkeypatch, mutation, ok):
        from ekcells import topology

        J = NAMED_IDEALS["deg2"]()
        cplx, gens = modified_complex(J), list(bpol_lifts(J)[1].values())
        if mutation.startswith("(a)"):
            cplx = with_generators_reversed(ek_complex(J))
            gens = list(J.gens)
        elif mutation.startswith("(b) top"):
            cplx = without_last_top_cell(cplx)
        elif mutation.startswith("(b) coeff"):
            # a square (9, 9) beyond the ring, on one top degree
            cplx, gens = widened(cplx, gens)
        elif mutation.startswith("(c)"):
            cplx = without_cells(cplx, lambda q, pair: q and pair.m == J.gens[-1])
            assert len(cplx.basis[0]) == len(J.gens)
        elif mutation.startswith("(d)"):
            diffs = [dict(mat) for mat in cplx.diffs]
            pos = min(diffs[-1])
            sign, coeff = diffs[-1][pos]
            diffs[-1][pos] = (-sign, coeff)
            cplx = FreeComplex(cplx.kind, cplx.ring, cplx.basis, cplx.mdegs, diffs)
        elif mutation == "row degree does not divide":
            cplx = moved_to_second_column(cplx)
        elif mutation == "gens not degree 0":
            gens = gens[1:]
        else:
            cplx = with_isolated_cell(cplx, cplx.mdegs[1][0])
        composites = []  # (d) runs last: a cone stopped before it never composes
        composite = topology._nonzero_composite
        monkeypatch.setattr(topology, "_nonzero_composite",
                            lambda cols: composites.append(composite(cols)) or composites[-1])
        for primes in ((), (2, 3)):
            composites.clear()
            assert _mapping_cone(cplx, gens, primes) is None
            assert (composites != []) == mutation.startswith("(d)")
            got = strand_exactness(cplx, gens, primes)
            assert got == _strand_walk(cplx, gens, primes)
            assert got == reference_strand_exactness(cplx, gens, primes)
            assert got.ok == ok
            if mutation.startswith("(d)"):
                # the strand the flipped column first lies in passes its ranks,
                # but its maps do not compose
                assert got.first_failure()["field"] == "Z"

    @staticmethod
    def lemma_cases():
        """Both kinds of the named ideals, (x1..x3)^2..4, (x1..x4)^2..4,
        (x1..x5)^2 and the criterion-7 draws, and the four battery complexes
        of 30 criterion-6 draws, with their generators."""
        ideals = [make() for make in NAMED_IDEALS.values()]
        ideals += [power_ideal(n, d) for n, ds in ((3, (2, 3, 4)), (4, (2, 3, 4)), (5, (2,)))
                   for d in ds]
        rng7 = random.Random(20260811)
        ideals += [random_borel_ideal(rng7, cm=True) for _ in range(50)]
        for J in ideals:
            yield ek_complex(J), list(J.gens)
            yield modified_complex(J), list(bpol_lifts(J)[1].values())
        rng6 = random.Random(20260810)
        for _ in range(30):
            yield from battery_complexes(random_borel_ideal(rng6))

    def test_cone_proves_the_frame_acyclic(self):
        # every cell degree divides the lcm of the generators, so the cone's
        # exact strands include the whole frame: its Smith invariants, the
        # independent check, show no homology and no torsion
        certified = 0
        for cplx, gens in self.lemma_cases():
            report = _mapping_cone(cplx, gens, ())
            assert report is not None and report.frame_acyclic, (cplx.kind, gens)
            assert all(betti == 0 and not torsion
                       for betti, torsion in homology_ranks(frame_complex(cplx)))
            certified += 1
        assert certified == 2 * (len(NAMED_IDEALS) + 7 + 50) + 4 * 30

    @pytest.mark.parametrize("mutation", ["top cell removed", "sign flipped", "3-torsion"])
    def test_walk_reports_leave_the_frame_unproved(self, mutation):
        # the walk ranks over Q and the requested primes only: on the
        # 3-torsion frame it passes over Q and F_2, yet the frame has homology
        if mutation == "3-torsion":
            cases = [torsion_complex(THREE_TORSION)]
        else:
            cases = battery_complexes(power_ideal(3, 2))
        for cplx, gens in cases:
            if mutation == "top cell removed":
                cplx = without_last_top_cell(cplx)
            elif mutation == "sign flipped":
                diffs = [dict(mat) for mat in cplx.diffs]
                pos = min(diffs[-1])
                sign, coeff = diffs[-1][pos]
                diffs[-1][pos] = (-sign, coeff)
                cplx = FreeComplex(cplx.kind, cplx.ring, cplx.basis, cplx.mdegs, diffs)
            for primes in ((), (2,), (2, 3)):
                report = strand_exactness(cplx, gens, primes)
                assert report == _strand_walk(cplx, gens, primes)
                assert not report.frame_acyclic
                assert report.ok == (mutation == "3-torsion" and 3 not in primes)
        if mutation == "3-torsion":
            assert homology_ranks(frame_complex(cplx))[1] == (0, (3,))

    def test_battery_walks_no_lattice(self, monkeypatch):
        # full_battery sends all four complexes through check_strands and
        # verification.strand_exactness, and the cone certifies each
        from ekcells import topology, verification

        walked, checked = [], []
        monkeypatch.setattr(topology, "_strand_walk", lambda *args: walked.append(args))
        strands = verification.strand_exactness
        monkeypatch.setattr(verification, "strand_exactness",
                            lambda cplx, gens: checked.append(cplx.kind) or strands(cplx, gens))
        verification.full_battery(NAMED_IDEALS["deg2"]())
        assert not walked
        assert checked == ["ek", "modified", "modified|theta", "modified|theta-prime"]

    def test_lattice_counted_on_one_bit_per_square(self):
        # bpol(x2^300) takes 301 squares: the cone packs a byte per square and
        # counts the lattice on the units' squarefree code, a bit per square
        J = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 300))])
        cplx, gens = modified_complex(J), list(bpol_lifts(J)[1].values())
        assert len(cplx.squares) == 301
        cone = _mapping_cone(cplx, gens, (2, 3))
        assert cone is not None and cone.frame_acyclic
        assert cone == _strand_walk(cplx, gens, (2, 3))
        assert cone.strands_checked == 3

    @pytest.mark.parametrize("power", [127, 128])
    def test_exponents_at_the_byte_boundary(self, power):
        # x2^127 fills a byte below its guard bit; x2^128 takes a field of two
        J = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, power))])
        cplx, gens = ek_complex(J), list(J.gens)
        cone = _mapping_cone(cplx, gens, (2, 3))
        assert cone is not None and cone.frame_acyclic
        report = strand_exactness(cplx, gens, primes=(2, 3))
        assert report.ok and report.strands_checked == 3
        assert report == cone == reference_strand_exactness(cplx, gens, primes=(2, 3))
        broken = without_last_top_cell(cplx)
        assert _mapping_cone(broken, gens, (2, 3)) is None
        assert strand_exactness(broken, gens, primes=(2, 3)).failures == [
            {"degree": f"x1*x2^{power}", "field": "Q", "position": 0, "defect": 1}]

    def test_step_of_a_squared_variable_is_no_cube_edge(self):
        # units x1 and x2 and one cell of degree x1^2*x2 with entries
        # (+1, x1*x2) to x1 and (-1, x1^2) to x2: it composes with the
        # augmentation and its group-1 step is one variable, but squared, so
        # the cone does not apply, and the strand at x1*x2 has no cell to kill
        # the cycle x1 - x2
        x1, x2 = Monomial((1, 0)), Monomial((0, 1))
        cplx = FreeComplex("ek", ("S", 2), [["u1", "u2"], ["c"]], [[x1, x2], [x1 * x1 * x2]],
                           [{(0, 0): (1, x1 * x2), (1, 0): (-1, x1 * x1)}])
        gens = [x1, x2]
        for primes in ((), (2, 3)):
            assert _mapping_cone(cplx, gens, primes) is None
            report = strand_exactness(cplx, gens, primes)
            assert report.failures == [
                {"degree": "x1*x2", "field": "Q", "position": 0, "defect": 1}]
            assert report == reference_strand_exactness(cplx, gens, primes)


def poset_face_counts(poset):
    """The cells of a graded cell poset per dimension, from its ranks."""
    counts = Counter(poset.ranks().values())
    return tuple(counts[r] for r in range(1, max(counts) + 1))


def poset_ridge_counts(poset):
    """The number of top cells above each ridge (corank-1 element) of a
    graded cell poset with one least element, from the up covers on the
    poset; None on any other poset, which has no ridge count."""
    ranks = poset.ranks()
    if ranks is None or len(poset.minimal_elements()) != 1:
        return None
    top = max(ranks.values())
    ups = Counter(lo for lo, _ in poset.covers)
    return [ups[e] for e in poset.elements if ranks[e] == top - 1]


def ridge_conditions_match(cplx, J):
    """Asserts that ``ball_check``'s cond2 and cond3 on cplx equal their
    definition on its cell poset; returns the poset's ridge counts."""
    poset = build_gamma(cplx)
    verdict = ball_check(poset, cplx, is_cw_poset(poset, J))
    counts = poset_ridge_counts(poset)
    expected = (counts is not None and all(c <= 2 for c in counts),
                counts is not None and any(c == 1 for c in counts))
    assert (verdict.cond2, verdict.cond3) == expected, (J, cplx.kind)
    return counts


def without_first_top_column(cplx):
    """cplx with its first top cell's column emptied: that cell is then
    minimal beside the least element."""
    cplx.diffs[-1] = {pos: e for pos, e in cplx.diffs[-1].items() if pos[1] != 0}
    return cplx


def euler(cplx):
    return sum((-1) ** q * r for q, r in enumerate(cplx.ranks))


class TestCellCounts:
    """The f-vector is ``cplx.ranks`` and the ridge conditions are read off
    the frame's top map; both are compared with their count on the poset."""

    def test_degree2(self, deg2):
        for kind in ("ek", "modified"):
            cplx = resolution(kind, deg2)
            assert cplx.ranks == poset_face_counts(build_gamma(cplx)) == (6, 8, 3)
            assert euler(cplx) == 1

    def test_tri_sq(self, tri_sq):
        for kind in ("ek", "modified"):
            cplx = resolution(kind, tri_sq)
            assert cplx.ranks == poset_face_counts(build_gamma(cplx)) == (5, 6, 2)
            assert euler(cplx) == 1

    def test_deg4(self, deg4):
        cplx = resolution("modified", deg4)
        assert cplx.ranks == poset_face_counts(build_gamma(cplx)) == (8, 12, 5)

    def test_ridge_incidences(self, deg2):
        cplx = resolution("ek", deg2)
        frame = frame_complex(cplx)
        rows = Counter(row for col in frame.cols[-1] for row in col)
        counts = [rows[row] for row in range(frame.ranks[-2])]
        assert counts == ridge_conditions_match(cplx, deg2)
        assert len(counts) == 8
        assert all(1 <= c <= 2 for c in counts)
        assert counts.count(1) > 0  # the boundary edges of the disk
        verdict = ball("ek", deg2)
        assert verdict.cond2 and verdict.cond3

    @pytest.mark.parametrize("name", sorted(NAMED_IDEALS))
    def test_ridge_conditions_on_named_ideals(self, name):
        J = NAMED_IDEALS[name]()
        for kind in ("ek", "modified"):
            if kind_of(kind).admits(J):
                assert ridge_conditions_match(resolution(kind, J), J) is not None
                # a top cell without facets leaves no least element, so no count
                mutant = without_first_top_column(resolution(kind, J))
                assert ridge_conditions_match(mutant, J) is None

    def test_ridge_conditions_on_criterion_7_draws(self):
        rng = random.Random(20260811)
        for _ in range(50):
            J = random_borel_ideal(rng, cm=True)
            for kind in ("ek", "modified"):
                assert ridge_conditions_match(resolution(kind, J), J) is not None
