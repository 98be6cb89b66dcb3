"""The bundled acceptance suite: concrete worked examples plus randomized
property batteries.  Used both by the test suite and by the ``paper-suite``
CLI subcommand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ek import AdmissiblePair, ek_complex, modified_complex
from .ideals import MonomialIdeal, random_borel_ideal
from .monomials import Monomial, square_str
from .polarization import bpol_lifts, sigma_ideal, stairs_diagram
from .posets import build_gamma, poset_isomorphic
from .shelling import ball_check, is_cw_poset
from .verification import VerificationError, cm_battery, full_battery

__all__ = ["NAMED_IDEALS", "named_ideal", "run_suite", "CriterionResult"]


def _ensure(cond, msg):
    if not cond:
        raise VerificationError(msg)


def _ideal(n, *gens):
    return MonomialIdeal(n, [Monomial.parse(g, n) for g in gens])


NAMED_IDEALS = {
    # the degree-2 Cohen-Macaulay ideal whose cell complexes are 2-balls
    "deg2": lambda: _ideal(3, "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"),
    # non-CM; modified complex is two triangles glued along a vertex
    "tri-tri": lambda: _ideal(3, "x1^2", "x1*x2", "x1*x3", "x2^3", "x2^2*x3"),
    # non-CM; modified complex is a square glued to a triangle along an edge
    "tri-sq": lambda: _ideal(3, "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3"),
    # classical and modified cell posets differ even as abstract posets
    "deg4": lambda: _ideal(
        3, "x1^2", "x1*x2", "x1*x3", "x2^4", "x2^3*x3", "x2^2*x3^2", "x2*x3^3", "x3^4"
    ),
    # the introductory two-variable example
    "intro": lambda: _ideal(2, "x1^2", "x1*x2", "x2^3"),
}


def named_ideal(name: str) -> MonomialIdeal:
    try:
        return NAMED_IDEALS[name]()
    except KeyError:
        raise ValueError(f"unknown named ideal {name!r}") from None


@dataclass
class CriterionResult:
    number: int
    description: str
    passed: bool
    detail: str


FIG_MONOMIAL = "x1^2*x4*x6^2"
FIG_FULL = """\
■■□··
··□··
··□··
··■□·
···□·
···■■"""
FIG_PARTIAL = """\
■■□··
··□··
·····
··■··
···□·
···■■"""


def criterion_1():
    ideal = named_ideal("deg2")
    cek, cmod = ek_complex(ideal), modified_complex(ideal)
    _ensure(cek.ranks == (6, 8, 3), "classical f-vector is not (6,8,3)")
    _ensure(cmod.ranks == (6, 8, 3), "modified f-vector is not (6,8,3)")
    cm_battery(ideal)  # thin, CW, EL and ball, and the CM structure, for both kinds
    return "f-vectors (6,8,3); thin, CW, EL pass; both complexes ball-certified"


def criterion_2():
    ideal = named_ideal("tri-tri")
    _ensure(not ideal.is_cm_stable()[0], "ideal unexpectedly Cohen-Macaulay")
    cplx = modified_complex(ideal)
    _ensure(cplx.ranks == (5, 6, 2), f"modified f-vector {cplx.ranks} != (5,6,2)")
    chi = sum((-1) ** q * r for q, r in enumerate(cplx.ranks))
    _ensure(chi == 1, "Euler characteristic != 1")
    poset = build_gamma(cplx)
    verdict = ball_check(poset, cplx, is_cw_poset(poset, ideal))
    _ensure(
        verdict.verdict == "refuted" and verdict.constructible_certificate is None,
        f"expected refuted without certificate, got {verdict.verdict}",
    )
    _ensure(
        verdict.cond2 and verdict.homology_trivial,
        "refutation should come from exhaustive shelling failure alone",
    )
    return "not CM; f-vector (5,6,2); chi=1; trivial homology; ball refuted (unshellable)"


def criterion_3():
    ideal = named_ideal("tri-sq")
    cek, cmod = ek_complex(ideal), modified_complex(ideal)
    _ensure(cek.ranks == (5, 6, 2), f"classical f-vector {cek.ranks} != (5,6,2)")
    _ensure(cmod.ranks == (5, 6, 2), f"modified f-vector {cmod.ranks} != (5,6,2)")
    g_mod, g_ek = build_gamma(cmod), build_gamma(cek)
    v_mod = ball_check(g_mod, cmod, is_cw_poset(g_mod, ideal))
    _ensure(
        v_mod.verdict == "ball-certified",
        f"modified ball check: {v_mod.verdict} ({v_mod.detail})",
    )
    v_ek = ball_check(g_ek, cek, is_cw_poset(g_ek, ideal))
    _ensure(v_ek.verdict == "refuted", f"classical ball check: {v_ek.verdict}")
    return "modified ball-certified, classical refuted; both f-vectors (5,6,2)"


def criterion_4():
    ideal = named_ideal("deg4")
    cek, cmod = ek_complex(ideal), modified_complex(ideal)
    _ensure(cek.ranks == (8, 12, 5), f"classical f-vector {cek.ranks} != (8,12,5)")
    _ensure(cmod.ranks == (8, 12, 5), f"modified f-vector {cmod.ranks} != (8,12,5)")
    _ensure(
        not poset_isomorphic(build_gamma(cek), build_gamma(cmod)),
        "cell posets unexpectedly isomorphic",
    )
    # sanity on the comparison machinery: the degree-2 posets do agree
    deg2 = named_ideal("deg2")
    same = build_gamma(ek_complex(deg2)), build_gamma(modified_complex(deg2))
    _ensure(poset_isomorphic(*same), "degree-2 cell posets should be isomorphic")
    return "f-vectors (8,12,5); classical and modified cell posets non-isomorphic"


def criterion_5():
    ideal = named_ideal("intro")
    squares, lifts = bpol_lifts(ideal)
    pol = [square_str(b, squares) for b in lifts.values()]
    _ensure(
        pol == ["x[1,1]*x[1,2]", "x[1,1]*x[2,2]", "x[2,1]*x[2,2]*x[2,3]"],
        f"polarized generators are {pol}",
    )
    shifted = sigma_ideal(ideal)
    _ensure(
        [str(m) for m in shifted.gens] == ["x1*x2", "x1*x3", "x2*x3*x4"],
        f"squarefree shift generators are {[str(m) for m in shifted.gens]}",
    )
    m = Monomial.parse(FIG_MONOMIAL, 6)
    full = AdmissiblePair((1, 2, 3, 4, 5), m, "modified")
    _ensure(
        full.indices == ((1, 3), (2, 3), (3, 3), (4, 4), (5, 4)),
        f"maximal index pairs are {full.indices}",
    )
    diagram = stairs_diagram(full.indices, m)
    _ensure(diagram == FIG_FULL, f"full stairs diagram differs:\n{diagram}")
    partial = stairs_diagram(((1, 3), (2, 3), (5, 4)), m)
    _ensure(partial == FIG_PARTIAL, f"partial stairs diagram differs:\n{partial}")
    return "polarization, squarefree shift and stairs diagrams match the worked examples"


def criterion_6(count=200, seed=20260810, progress=None):
    rng = random.Random(seed)
    intervals = 0
    for k in range(count):
        ideal = random_borel_ideal(rng)
        try:
            stats = full_battery(ideal)
        except Exception as exc:
            raise VerificationError(f"ideal #{k} {ideal!r}: {exc}") from exc
        intervals += stats.get("intervals_ek", 0) + stats.get("intervals_modified", 0)
        if progress:
            progress(k + 1, count)
    return f"{count} random Borel ideals, {intervals} dual intervals certified"


def criterion_7(count=50, seed=20260811, progress=None):
    rng = random.Random(seed)
    for k in range(count):
        ideal = random_borel_ideal(rng, cm=True)
        try:
            cm_battery(ideal)
        except Exception as exc:
            raise VerificationError(f"CM ideal #{k} {ideal!r}: {exc}") from exc
        if progress:
            progress(k + 1, count)
    return f"{count} random CM Borel ideals: decompositions hold, balls certified"


_CRITERIA = [
    (1, "degree-2 CM ideal: f-vectors, thin/CW/EL, both balls certified", criterion_1),
    (2, "two-triangle ideal: not CM, refuted ball with trivial homology", criterion_2),
    (3, "square-triangle ideal: modified certified, classical refuted", criterion_3),
    (4, "degree-4 ideal: cell posets differ even as posets", criterion_4),
    (5, "introductory polarization, shift and stairs diagrams", criterion_5),
    (6, "randomized structural battery over Borel ideals", criterion_6),
    (7, "randomized CM battery with ball certification", criterion_7),
]


def run_suite(random_count=200, cm_count=50, seed=20260810, progress=None):
    """Run all acceptance criteria; returns a list of CriterionResult."""
    results = []
    for number, description, fn in _CRITERIA:
        try:
            if number == 6:
                detail = fn(count=random_count, seed=seed, progress=progress)
            elif number == 7:
                detail = fn(count=cm_count, seed=seed + 1, progress=progress)
            else:
                detail = fn()
            results.append(CriterionResult(number, description, True, detail))
        except Exception as exc:  # a failed criterion must not stop the others
            results.append(CriterionResult(number, description, False, str(exc)))
    return results
