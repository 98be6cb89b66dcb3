"""Non-standard polarization of Borel fixed ideals and its specializations.

bpol places the i-th smallest variable of a monomial (with multiplicity) into
column i of the doubly indexed ring.  The two linear specializations collapse
the big ring back down: theta sends x_{i,j} to x_i and recovers the original
ideal, theta' sends x_{i,j} to x_{i+j-1} and recovers the squarefree shift.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FreeComplex
from .ideals import MonomialIdeal
from .monomials import BiMonomial, Monomial

__all__ = [
    "PolarizationContext",
    "context_for",
    "bpol_monomial",
    "bpol_ideal",
    "b_shift",
    "g_shift",
    "sigma_monomial",
    "sigma_ideal",
    "specialize_theta",
    "specialize_theta_prime",
    "stairs_diagram",
]


@dataclass(frozen=True)
class PolarizationContext:
    """Ring bounds for k[x_{i,j} | 1 <= i <= n, 1 <= j <= d]."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"invalid context n={self.n}, d={self.d}")

    @property
    def shifted_n(self) -> int:
        """Variable count N = n + d - 1 of the squarefree target ring."""
        return self.n + self.d - 1


def context_for(ideal: MonomialIdeal, d=None) -> PolarizationContext:
    """The context for an ideal; d defaults to the largest generator degree."""
    d0 = ideal.max_deg()
    if d is None:
        d = d0
    elif d < d0:
        raise ValueError(f"column bound d={d} below maximal generator degree {d0}")
    return PolarizationContext(ideal.n, d)


def bpol_monomial(m: Monomial) -> BiMonomial:
    """Squarefree lift of m: the i-th smallest factor goes to column i."""
    if m.is_unit():
        raise ValueError("the unit monomial has no polarization")
    return BiMonomial.from_factors(
        (a, pos) for pos, a in enumerate(m.sorted_factors(), start=1)
    )


def bpol_ideal(ideal: MonomialIdeal) -> list:
    """Polarized generators, in the ideal's canonical generator order."""
    if not ideal.is_borel_fixed():
        raise ValueError("ideal is not Borel fixed")
    return [bpol_monomial(m) for m in ideal.gens]


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
    ctx = context_for(ideal, d)
    if not ideal.is_borel_fixed():
        raise ValueError("ideal is not Borel fixed")
    shifted = MonomialIdeal(
        ctx.shifted_n, [sigma_monomial(m, ctx.shifted_n) for m in ideal.gens]
    )
    if not shifted.is_sqfree_strongly_stable():
        raise RuntimeError(f"shift of {ideal!r} is not squarefree strongly stable")
    return shifted


def _substitute(cplx: FreeComplex, var_image, kind_suffix, ring) -> FreeComplex:
    def conv(bm: BiMonomial) -> Monomial:
        exps = [0] * ring[1]
        for (i, j), e in bm.items():
            exps[var_image(i, j) - 1] += e
        return Monomial(exps)

    diffs = [
        {pos: (sign, conv(coeff)) for pos, (sign, coeff) in mat.items()}
        for mat in cplx.diffs
    ]
    return FreeComplex(
        kind=f"{cplx.kind}|{kind_suffix}",
        ring=ring,
        basis=[list(layer) for layer in cplx.basis],
        mdegs=[[conv(md) for md in layer] for layer in cplx.mdegs],
        diffs=diffs,
    )


def specialize_theta(cplx: FreeComplex) -> FreeComplex:
    """Substitute x_{i,j} -> x_i throughout; basis, ranks and signs unchanged."""
    if cplx.ring[0] != "S~":
        raise ValueError(f"theta applies to big-ring complexes, got ring {cplx.ring}")
    _, n, d = cplx.ring

    def image(i, j):
        if not (1 <= i <= n and 1 <= j <= d):
            raise ValueError(f"variable x[{i},{j}] outside context n={n}, d={d}")
        return i

    return _substitute(cplx, image, "theta", ("S", n))


def specialize_theta_prime(cplx: FreeComplex) -> FreeComplex:
    """Substitute x_{i,j} -> x_{i+j-1}; lands in N = n + d - 1 variables."""
    if cplx.ring[0] != "S~":
        raise ValueError(f"theta' applies to big-ring complexes, got ring {cplx.ring}")
    _, n, d = cplx.ring

    def image(i, j):
        if not (1 <= i <= n and 1 <= j <= d):
            raise ValueError(f"variable x[{i},{j}] outside context n={n}, d={d}")
        return i + j - 1

    return _substitute(cplx, image, "theta-prime", ("T", n + d - 1))


def stairs_diagram(white, wm: BiMonomial) -> str:
    """ASCII stairs diagram: rows i, columns j, white squares from the index
    set, black squares from the variables of the polarized monomial."""
    white = {(int(i), int(j)) for i, j in white}
    black = set(wm.variables())
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
