"""Non-standard polarization of Borel fixed ideals and its specializations.

bpol places the i-th smallest variable of a monomial (with multiplicity) into
column i of the doubly indexed ring: the factor x_a at position i becomes the
square (a, i).  bpol(I) lives in k[x_s | s in squares], ``squares`` the
sorted squares its generators use (the first half of ``bpol_lifts(I)``).
The two linear specializations collapse the big ring back down: theta sends
x_{i,j} to x_i and recovers the original ideal, theta' sends x_{i,j} to
x_{i+j-1} and recovers the squarefree shift.
"""

from __future__ import annotations

from .complexes import FreeComplex
from .ideals import MonomialIdeal
from .monomials import Monomial, from_squares, square_items

__all__ = [
    "column_bound",
    "bpol_squares",
    "bpol_monomial",
    "bpol_lifts",
    "bpol_ideal",
    "b_shift",
    "g_shift",
    "sigma_monomial",
    "sigma_ideal",
    "specialize_theta",
    "specialize_theta_prime",
    "stairs_diagram",
]


def column_bound(ideal: MonomialIdeal, d=None) -> int:
    """The column bound d of k[x_{i,j} | 1 <= i <= n, 1 <= j <= d]: by
    default the largest generator degree, below which it may not go."""
    d0 = ideal.max_deg()
    if d is None:
        return d0
    if d < d0:
        raise ValueError(f"column bound d={d} below maximal generator degree {d0}")
    return d


def bpol_squares(m: Monomial) -> tuple:
    """The squares of bpol(m), in order: the i-th smallest factor x_a of m
    gives the square (a, i)."""
    if m.is_unit():
        raise ValueError("the unit monomial has no polarization")
    factors = m.sorted_factors()
    return tuple(zip(factors, range(1, len(factors) + 1)))


def bpol_monomial(m: Monomial, squares: tuple) -> Monomial:
    """Squarefree lift of m in k[x_s | s in squares]."""
    return from_squares(squares, bpol_squares(m))


def bpol_lifts(ideal: MonomialIdeal) -> tuple:
    """The sorted squares of bpol(I), the ring of the modified resolution
    (each variable x_{i,j(m,i)} of its differential divides bpol(m_i)),
    and {m: bpol(m)} over the generators m of I, in their canonical order.
    Each generator is polarized once, and its lift is read off a map from
    the squares to their slots built apart from ``from_squares``, so that
    ``bpol_monomial`` checks it."""
    polar = {m: bpol_squares(m) for m in ideal.gens}
    # each generator's squares are sorted, so the sort merges that many runs
    squares = tuple(sorted(dict.fromkeys(s for sq in polar.values() for s in sq)))
    slot = {s: k for k, s in enumerate(squares)}
    lifts = {}
    for m, sq in polar.items():
        exps = [0] * len(squares)
        for s in sq:  # the squares of bpol(m) are distinct
            exps[slot[s]] = 1
        lifts[m] = Monomial._of(tuple(exps))
    return squares, lifts


def bpol_ideal(ideal: MonomialIdeal) -> list:
    """Polarized generators in the ring of ``bpol_lifts(I)``, in the ideal's
    canonical generator order."""
    if not ideal.is_borel_fixed():
        raise ValueError("ideal is not Borel fixed")
    return list(bpol_lifts(ideal)[1].values())


def b_shift(m: Monomial, s: int) -> Monomial:
    """The Borel exchange (m / x_k) * x_s, k the least support index above s.

    Moves one factor of m down to slot s; for m in a Borel fixed ideal the
    result stays in the ideal.
    """
    if m.is_unit():
        raise ValueError("cannot shift the unit monomial")
    if not 1 <= s < m.max_var():
        raise ValueError(f"need 1 <= s < max({m}) = {m.max_var()}, got {s}")
    k = min(i for i in m.support() if i > s)
    return m.div_var(k).times_var(s)


def g_shift(ideal: MonomialIdeal, m: Monomial, s: int) -> Monomial:
    """m_<s> : the decomposition of the Borel exchange b_shift(m, s)."""
    if not ideal.is_borel_fixed():
        raise ValueError("ideal is not Borel fixed")
    return ideal.g(b_shift(m, s))


def sigma_monomial(m: Monomial, n_target: int) -> Monomial:
    """The squarefree shift sending the i-th smallest factor a to a + i - 1."""
    if m.is_unit():
        raise ValueError("the unit monomial has no squarefree shift")
    return Monomial.from_factors(
        n_target, (a + pos for pos, a in enumerate(m.sorted_factors()))
    )


def sigma_ideal(ideal: MonomialIdeal, d=None) -> MonomialIdeal:
    """The squarefree strongly stable shift of a Borel fixed ideal."""
    n_target = ideal.n + column_bound(ideal, d) - 1
    if not ideal.is_borel_fixed():
        raise ValueError("ideal is not Borel fixed")
    shifted = MonomialIdeal(n_target, [sigma_monomial(m, n_target) for m in ideal.gens])
    if not shifted.is_sqfree_strongly_stable():
        raise RuntimeError(f"shift of {ideal!r} is not squarefree strongly stable")
    return shifted


def _specialize(cplx: FreeComplex, t: int) -> FreeComplex:
    """Substitute x_{i,j} -> x_{i+(j-1)t}: theta into k[x_1..x_n] (t = 0), theta'
    into k[x_1..x_{n+d-1}] (t = 1); basis, ranks and signs unchanged."""
    name, suffix = ("theta'", "theta-prime") if t else ("theta", "theta")
    if cplx.ring[0] != "S~":
        raise ValueError(f"{name} applies to big-ring complexes, got ring {cplx.ring}")
    _, n, d, squares = cplx.ring
    for i, j in squares:
        if not (1 <= i <= n and 1 <= j <= d):
            raise ValueError(f"variable x[{i},{j}] outside context n={n}, d={d}")
    ring = ("T", n + d - 1) if t else ("S", n)

    def conv(mono: Monomial) -> Monomial:
        exps = [0] * ring[1]
        for (i, j), e in square_items(mono, squares):
            exps[i + (j - 1) * t - 1] += e
        return Monomial._of(tuple(exps))

    # the coefficients are few distinct monomials, mostly single variables
    image = {c: conv(c) for c in {c for mat in cplx.diffs for _, c in mat.values()}}
    diffs = [{pos: (sign, image[c]) for pos, (sign, c) in mat.items()} for mat in cplx.diffs]
    return FreeComplex(
        kind=f"{cplx.kind}|{suffix}",
        ring=ring,
        basis=[list(layer) for layer in cplx.basis],
        mdegs=[[conv(md) for md in layer] for layer in cplx.mdegs],
        diffs=diffs,
    )


def specialize_theta(cplx: FreeComplex) -> FreeComplex:
    """The depolarization theta: x_{i,j} -> x_i, recovering the original ideal."""
    return _specialize(cplx, 0)


def specialize_theta_prime(cplx: FreeComplex) -> FreeComplex:
    """theta': x_{i,j} -> x_{i+j-1}, recovering the squarefree shift."""
    return _specialize(cplx, 1)


def stairs_diagram(white, m: Monomial) -> str:
    """ASCII stairs diagram: rows i, columns j, white squares from the index
    set, black squares from the squares of bpol(m)."""
    white = {(int(i), int(j)) for i, j in white}
    black = set(bpol_squares(m))
    overlap = white & black
    if overlap:
        raise ValueError(f"white and black squares overlap at {sorted(overlap)}")
    cells = white | black
    if not cells:
        raise ValueError("empty diagram")
    rows = max(i for i, _ in cells)
    cols = max(j for _, j in cells)
    lines = []
    for i in range(1, rows + 1):
        line = []
        for j in range(1, cols + 1):
            if (i, j) in white:
                line.append("□")  # white square
            elif (i, j) in black:
                line.append("■")  # black square
            else:
                line.append("·")
        lines.append("".join(line))
    return "\n".join(lines)
