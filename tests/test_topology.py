import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ekcells import (
    FreeComplex,
    IntegerChainComplex,
    SimplicialComplexData,
    bpol_ideal,
    build_gamma,
    ek_complex,
    euler_characteristic,
    face_counts,
    frame_complex,
    homology_ranks,
    modified_complex,
    random_borel_ideal,
    reduced_homology_trivial,
    ridge_incidences,
    simplicial_chain_complex,
    strand_exactness,
)
from ekcells.ideals import borel_closure
from ekcells.monomials import BiMonomial, Monomial
from ekcells.polarization import sigma_ideal, specialize_theta, specialize_theta_prime
from ekcells.shelling import ball_check
from ekcells.suite import NAMED_IDEALS
from ekcells.topology import (
    StrandReport,
    _exactness_defect,
    _f2_insert,
    _f3_insert,
    _lcm_lattice,
    _Packing,
    _StrandFrame,
    invariant_factors,
    rank_int,
    rank_mod_p,
    smith_diagonal,
    sparse_columns,
)
from conftest import ideal


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


def reference_sort_key(mono):
    if hasattr(mono, "exps"):
        return (0, mono.exps)
    return (1, mono.items())


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
    """The strand oracle on monomial objects: the lattice by ``lcm``, each
    strand by a ``divides`` scan, dense strand matrices."""
    report = StrandReport(ok=True, strands_checked=0, primes=tuple(primes))
    for b in sorted(reference_lcm_lattice(list(gens)), key=reference_sort_key):
        report.strands_checked += 1
        _, dims, mats = reference_strand(cplx, b)
        for p in (0,) + report.primes:
            ranks = [rank_int(m) if p == 0 else rank_mod_p(m, p) for m in mats]
            defect = _exactness_defect(dims, ranks)
            if defect is not None:
                report.ok = False
                report.failures.append({"degree": str(b), "field": f"F{p}" if p else "Q",
                                        "position": defect[0], "defect": defect[1]})
                break
    return report


def packed_lattice(cplx, gens):
    """The packed strand oracle's lcm lattice, unpacked to monomials."""
    packing = _Packing(list(gens) + [md for layer in cplx.mdegs for md in layer])
    lattice = _lcm_lattice({packing.pack(g) for g in gens}, packing.guard, packing.width)
    return {packing.unpack(b) for b in lattice}


def battery_complexes(J):
    """The four complexes ``full_battery`` checks strands on, with their gens."""
    cmod = modified_complex(J)
    return [
        (ek_complex(J), list(J.gens)),
        (cmod, bpol_ideal(J)),
        (specialize_theta(cmod), list(J.gens)),
        (specialize_theta_prime(cmod), list(sigma_ideal(J).gens)),
    ]


def field_columns(mat, ncols, p):
    """Each column as the strand oracle reads it: over F_2 the bitmask of its
    odd rows, over F_3 the masks of its rows = 1 and = -1 mod 3."""
    def rows(j, residue):
        return sum(1 << i for i, row in enumerate(mat) if row[j] % p == residue)
    if p == 2:
        return [rows(j, 1) for j in range(ncols)]
    return [(rows(j, 1), rows(j, 2)) for j in range(ncols)]


def field_rank(cols, p):
    basis = {}
    for col in cols:
        (_f2_insert if p == 2 else _f3_insert)(basis, col)
    return len(basis)


@st.composite
def sign_matrices(draw):
    """Sparse matrices with entries 0 and +-1, with their column count."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    row = st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m)), n


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


def power_ideal(n, d):
    return ideal(n, *(
        "*".join(f"x{i}" for i in combo)
        for combo in combinations_with_replacement(range(1, n + 1), d)
    ))


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
        assert not reduced_homology_trivial(CIRCLE)

    def test_projective_plane_has_two_torsion(self):
        hom = homology_ranks(simplicial_chain_complex(RP2))
        assert hom == [(0, ()), (0, ()), (0, (2,)), (0, ())]
        assert not reduced_homology_trivial(RP2)

    def test_ball_check_on_cube_of_maximal_ideal(self):
        # (x1..x4)^3, 336 facets per kind: too large for the dense elimination in tier-1
        J = power_ideal(4, 3)
        for kind in ("ek", "modified"):
            verdict = ball_check(build_gamma(kind, J), kind, J)
            assert verdict.verdict == "ball-certified" and verdict.homology_trivial

    def test_triangle_is_contractible(self):
        triangle = SimplicialComplexData((0, 1, 2), (frozenset({0, 1, 2}),))
        assert reduced_homology_trivial(triangle)

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
        # reduced homology
        rng = random.Random(5150)
        for _ in range(6):
            J = random_borel_ideal(rng, max_gens=10)
            for kind, builder in (("ek", ek_complex), ("modified", modified_complex)):
                cellular = homology_ranks(frame_complex(builder(J)))
                g = build_gamma(kind, J)
                barycentric = homology_ranks(
                    simplicial_chain_complex(g.order_complex(drop_bottom=True))
                )
                assert all(x == (0, ()) for x in cellular)
                assert all(x == (0, ()) for x in barycentric)


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
        data = build_gamma(kind, J).order_complex(drop_bottom=True)
        self.check(simplicial_chain_complex(data), *dense_simplicial_complex(data))
        cplx = (ek_complex if kind == "ek" else modified_complex)(J)
        self.check(frame_complex(cplx), *dense_frame_complex(cplx))


class TestStrands:
    def test_degree2_both_kinds(self, deg2):
        assert strand_exactness(ek_complex(deg2), list(deg2.gens), primes=(2, 3)).ok
        assert strand_exactness(modified_complex(deg2), bpol_ideal(deg2)).ok

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
        failure = report.first_failure()
        assert failure["field"] == "Q" and failure["defect"] != 0

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
                assert packed_lattice(cplx, gens) == reference_lcm_lattice(gens)
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
        # x2^7 fits three bits plus the guard, x2^8 needs four
        J = power_ideal(2, d)
        cek = ek_complex(J)
        assert _Packing(list(J.gens)).width == width
        for cplx, gens in battery_complexes(J)[:2]:
            got = strand_exactness(cplx, gens, primes=(2, 3))
            want = reference_strand_exactness(cplx, gens, primes=(2, 3))
            assert got.ok and got == want
            assert packed_lattice(cplx, gens) == reference_lcm_lattice(gens)
        # lcm(x1^(d-i) x2^i, x1^(d-j) x2^j) = x1^(d-i) x2^j for i <= j
        assert strand_exactness(cek, list(J.gens)).strands_checked == (d + 1) * (d + 2) // 2

    def test_variable_in_no_generator_never_divides(self, deg2):
        cplx = modified_complex(deg2)
        gens = bpol_ideal(deg2)
        stray = BiMonomial.variable(9, 9)
        cplx.mdegs[-1][0] = cplx.mdegs[-1][0] * stray
        packing = _Packing(gens + [md for layer in cplx.mdegs for md in layer])
        md = packing.pack(cplx.mdegs[-1][0])
        G = packing.guard
        lattice = _lcm_lattice({packing.pack(g) for g in gens}, G, packing.width)
        assert lattice and all(((b | G) - md) & G != G for b in lattice)
        got = strand_exactness(cplx, gens, primes=(2, 3))
        assert not got.ok and got == reference_strand_exactness(cplx, gens, primes=(2, 3))

    def test_strand_counts_on_cube_of_maximal_ideal(self):
        J = power_ideal(4, 3)
        assert strand_exactness(ek_complex(J), list(J.gens)).strands_checked == 241
        assert strand_exactness(modified_complex(J), bpol_ideal(J)).strands_checked == 612

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


class TestFieldRanks:
    """The F_2 bitmask and bitsliced F_3 kernels of the strand oracle, against
    the Smith kernel and dense strand matrices."""

    @given(sign_matrices())
    @example(([], 0))
    @example(([], 3))
    @example(([[0, 0]], 2))
    @example(([[1, -1, 1, 0]], 4))
    @example(([[1], [-1], [0], [1]], 1))
    @example(([[1, 1], [1, -1]], 2))
    def test_bitmask_ranks_match_rank_mod_p(self, case):
        mat, n = case
        for p in (2, 3):
            assert field_rank(field_columns(mat, n, p), p) == rank_mod_p(mat, p), p

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 4), min_size=2, max_size=4), min_size=1, max_size=2))
    def test_top_down_ranks_match_per_map_ranks(self, seeds):
        # every strand of a resolution is exact, and the strand mask picks the
        # basis elements whose degree divides b
        J = borel_closure([Monomial.from_factors(4, factors) for factors in seeds])
        assume(len(J.gens) <= 10)
        for cplx, gens in battery_complexes(J):
            packing = _Packing(gens + [md for layer in cplx.mdegs for md in layer])
            frame = _StrandFrame(cplx, packing)
            assert frame.certifying_fields(()) == (2,)
            assert frame.certifying_fields((3, 2)) == (2, 3)
            for b in reference_lcm_lattice(gens):
                sub, dims, mats = reference_strand(cplx, b)
                mask = frame.strand(packing.fields(packing.pack(b)))
                assert mask == sum(
                    1 << (frame.offsets[q + 1] + k) for q, ks in enumerate(sub) for k in ks
                ) | 1
                for p in (2, 3):
                    ranks = frame.field_ranks(mask, p)
                    assert ranks == [rank_mod_p(m, p) for m in mats], (b, p)
                    assert _exactness_defect(dims, ranks) is None

    @pytest.mark.parametrize("syzygies", [TWO_TORSION, THREE_TORSION])
    def test_top_down_ranks_see_the_torsion(self, syzygies):
        cplx, gens = torsion_complex(syzygies)
        packing = _Packing(gens + [md for layer in cplx.mdegs for md in layer])
        frame = _StrandFrame(cplx, packing)
        mask = frame.strand(packing.fields(packing.pack(gens[0])))
        _, dims, mats = reference_strand(cplx, gens[0])
        assert mask == frame.full and dims == [1, len(syzygies) + 1, len(syzygies)]
        for p in (2, 3):
            assert frame.field_ranks(mask, p) == [rank_mod_p(m, p) for m in mats]
        assert rank_mod_p(mats[1], 2 if syzygies is TWO_TORSION else 3) == len(syzygies) - 1

    def test_field_ranks_certify_nothing_off_a_z_complex(self, deg2):
        cplx = ek_complex(deg2)
        packing = _Packing(list(deg2.gens) + [md for layer in cplx.mdegs for md in layer])
        assert _StrandFrame(cplx, packing).certifying_fields((2, 3)) == (2, 3)
        assert _StrandFrame(cplx, packing).certifying_fields((5,)) == ()
        pos, (sign, coeff) = next(iter(sorted(cplx.diffs[0].items())))
        cplx.diffs[0][pos] = (-sign, coeff)
        assert _StrandFrame(cplx, packing).certifying_fields(()) == ()
        # a row degree that does not divide its column degree
        cplx = ek_complex(deg2)
        (row, _), _ = next(iter(sorted(cplx.diffs[0].items())))
        cplx.mdegs[0][row] = cplx.mdegs[0][row] * Monomial.variable(deg2.n, 1) ** 3
        packing = _Packing(list(deg2.gens) + [md for layer in cplx.mdegs for md in layer])
        assert _StrandFrame(cplx, packing).certifying_fields(()) == ()
        assert strand_exactness(cplx, list(deg2.gens)) == reference_strand_exactness(
            cplx, list(deg2.gens))


class TestCellCounts:
    def test_degree2(self, deg2):
        for kind in ("ek", "modified"):
            g = build_gamma(kind, deg2)
            assert face_counts(g) == (6, 8, 3)
            assert euler_characteristic(g) == 1

    def test_tri_sq(self, tri_sq):
        for kind in ("ek", "modified"):
            g = build_gamma(kind, tri_sq)
            assert face_counts(g) == (5, 6, 2)
            assert euler_characteristic(g) == 1

    def test_deg4(self, deg4):
        g = build_gamma("modified", deg4)
        assert face_counts(g) == (8, 12, 5)

    def test_ridge_incidences(self, deg2):
        g = build_gamma("ek", deg2)
        counts = [c for _, c in ridge_incidences(g)]
        assert len(counts) == 8
        assert all(1 <= c <= 2 for c in counts)
        assert counts.count(1) > 0  # the boundary edges of the disk
