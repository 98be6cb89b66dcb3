import random

import pytest

from ekcells import (
    AdmissiblePair,
    admissible_pairs,
    bpol_monomial,
    bpol_ring,
    bpol_squares,
    ek_complex,
    g_shift,
    j_index,
    modified_complex,
    random_borel_ideal,
)
from ekcells.monomials import from_squares, square_items
from ekcells.suite import NAMED_IDEALS, named_ideal
from ekcells.verification import check_d2, check_minimality, check_multidegrees
from conftest import b_set, ideal, mono


class TestJIndex:
    def test_big_monomial(self):
        m = mono("x1^2*x4*x6^2", 6)
        assert j_index(m, 3) == 3
        assert j_index(m, 4) == 4
        assert j_index(m, 5) == 4

    def test_no_exponents_below(self):
        assert j_index(mono("x2^2", 2), 1) == 1

    def test_range(self):
        with pytest.raises(ValueError):
            j_index(mono("x2^2", 2), 2)


class TestAdmissibleTilde:
    def test_counts_match_classical(self, deg2):
        for q in range(4):
            assert len(admissible_pairs(deg2, q, "modified")) == [6, 8, 3, 0][q]

    def test_maximal_pair_form(self):
        m = mono("x1^2*x4*x6^2", 6)
        full = AdmissiblePair((1, 2, 3, 4, 5), m, "modified")
        assert full.indices == ((1, 3), (2, 3), (3, 3), (4, 4), (5, 4))

    def test_pair_never_divides_polarization(self):
        rng = random.Random(41)
        for _ in range(20):
            J = random_borel_ideal(rng)
            ring = bpol_ring(J)
            for q in range(1, 4):
                for pair in admissible_pairs(J, q, "modified"):
                    wm = bpol_monomial(pair.m, ring)
                    for i, j in pair.indices:
                        assert not from_squares(ring, [(i, j)]).divides(wm)

    def test_q0(self, tri_tri):
        pairs = admissible_pairs(tri_tri, 0, "modified")
        assert len(pairs) == 5
        assert all(p.F == () for p in pairs)

    def test_requires_borel(self):
        with pytest.raises(ValueError):
            admissible_pairs(ideal(3, "x1^2", "x1*x2", "x2^2", "x2*x3"), 0, "modified")


class TestBTildeSet:
    def test_intro_example(self, intro):
        # m_<1> of x2^3 is g(x1*x2^2) = x1*x2, and the empty pair is admissible
        assert b_set(intro, (1,), mono("x2^3", 2), "modified") == (1,)

    def test_empty(self, intro):
        assert b_set(intro, (), mono("x2^3", 2), "modified") == ()

    def test_against_brute_force(self):
        rng = random.Random(43)
        for _ in range(15):
            J = random_borel_ideal(rng)
            for q in range(1, 4):
                for pair in admissible_pairs(J, q, "modified"):
                    got = set(b_set(J, pair.F, pair.m, "modified"))
                    expect = set()
                    for i in pair.F:
                        m2 = g_shift(J, pair.m, i)
                        rest = tuple(k for k in pair.F if k != i)
                        if all(k < m2.max_var() for k in rest) and all(
                            j_index(pair.m, k) == j_index(m2, k) for k in rest
                        ):
                            expect.add(i)
                    assert got == expect


class TestModifiedComplex:
    def test_f_vector(self, deg2):
        assert modified_complex(deg2).ranks == (6, 8, 3)

    def test_single_term_column(self, intro):
        cplx = modified_complex(intro)
        pair = AdmissiblePair((1,), mono("x1*x2", 2), "modified")
        col = cplx.basis[1].index(pair)
        entries = {
            cplx.basis[0][row]: (sign, coeff)
            for row, sign, coeff in cplx.column(1, col)
        }
        # -x[1,2] e(0; x11 x22) + x[2,2] e(0; x11 x12)
        assert entries[AdmissiblePair((), mono("x1*x2", 2), "modified")] == (
            -1,
            from_squares(cplx.squares, [(1, 2)]),
        )
        assert entries[AdmissiblePair((), mono("x1^2", 2), "modified")] == (
            1,
            from_squares(cplx.squares, [(2, 2)]),
        )

    def test_removed_variable_is_lcm_quotient(self):
        rng = random.Random(47)
        for _ in range(15):
            J = random_borel_ideal(rng)
            ring = bpol_ring(J)
            for q in range(1, 4):
                for pair in admissible_pairs(J, q, "modified"):
                    wm = bpol_monomial(pair.m, ring)
                    for i, j in pair.indices:
                        wm2 = bpol_monomial(g_shift(J, pair.m, i), ring)
                        assert wm.lcm(wm2).div(wm) == from_squares(ring, [(i, j)])

    def test_rank_equality_with_classical(self):
        rng = random.Random(53)
        for _ in range(20):
            J = random_borel_ideal(rng)
            assert modified_complex(J).ranks == ek_complex(J).ranks

    def test_structure_on_random_ideals(self):
        rng = random.Random(59)
        for _ in range(15):
            J = random_borel_ideal(rng)
            cplx = modified_complex(J)
            check_d2(cplx)
            check_minimality(cplx)
            check_multidegrees(cplx)

    def test_rejects_non_borel(self):
        with pytest.raises(ValueError, match="Borel"):
            modified_complex(ideal(3, "x1^2", "x1*x2", "x2^2", "x2*x3"))

    def test_json_uses_pair_form(self, intro):
        data = modified_complex(intro).to_json_dict()
        assert data["ring"] == {"type": "S~", "n": 2, "d": 3}
        lbl = data["basis"][1][0]
        assert isinstance(lbl["F"][0], list) and len(lbl["F"][0]) == 2
        coeff = data["diffs"][0]["entries"][0]["coeff_exponents"]
        assert isinstance(coeff[0], list) and len(coeff[0]) == 3


class TestSquaresLayout:
    """The modified complex on the squares that bpol(I) uses, read back through
    ``square_items`` against the stairs picture of each cell, which is built
    without the layout: the black squares of bpol(m) and the white squares of
    its index set, each once."""

    @pytest.fixture(scope="class")
    def layout_ideals(self):
        """The named ideals, the first 50 ideals of the structural suite and
        the 50 of the ball suite."""
        rng6, rng7 = random.Random(20260810), random.Random(20260811)
        return ([named_ideal(name) for name in NAMED_IDEALS]
                + [random_borel_ideal(rng6) for _ in range(50)]
                + [random_borel_ideal(rng7, cm=True) for _ in range(50)])

    def test_degrees_are_the_stairs_pictures(self, layout_ideals):
        for J in layout_ideals:
            cplx = modified_complex(J)
            squares = cplx.squares
            assert squares == tuple(sorted({s for m in J.gens for s in bpol_squares(m)}))
            pictures = []
            for layer, mdegs in zip(cplx.basis, cplx.mdegs):
                pictures.append([])
                for pair, md in zip(layer, mdegs):
                    black, white = set(bpol_squares(pair.m)), set(pair.indices)
                    assert not black & white, (J, pair)
                    picture = black | white
                    pictures[-1].append(picture)
                    assert square_items(md, squares) == tuple((s, 1) for s in sorted(picture))
            # each coefficient is the picture of its column less that of its row
            for q, mat in enumerate(cplx.diffs, start=1):
                for (i, j), (_, coeff) in mat.items():
                    src, tgt = pictures[q][j], pictures[q - 1][i]
                    assert tgt <= src, (J, q, i, j)
                    assert square_items(coeff, squares) == tuple((s, 1) for s in sorted(src - tgt))

    def test_ring_is_compact(self):
        # 202 squares, where a ring of all x[i,j] with i <= n, j <= d has 600
        J = ideal(3, "x1", "x2", "x3^200")
        cplx = modified_complex(J)
        assert cplx.squares == ((1, 1), (2, 1)) + tuple((3, j) for j in range(1, 201))
        assert cplx.ring == ("S~", 3, 200, cplx.squares)
        monos = [md for layer in cplx.mdegs for md in layer]
        monos += [coeff for mat in cplx.diffs for _, coeff in mat.values()]
        assert monos and all(m.n == 202 for m in monos)
