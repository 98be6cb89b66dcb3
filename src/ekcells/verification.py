"""Structural checks on the constructed complexes and posets.

Each ``check_*`` function raises :class:`VerificationError` with a concrete
counterexample message on failure and returns quietly on success.
``full_battery`` / ``cm_battery`` bundle everything the randomized suites
assert per ideal.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import shelling
from .complexes import FreeComplex
from .ek import AdmissiblePair, admissible_layers, b_set, ek_complex, modified_complex
from .ideals import MonomialIdeal
from .monomials import Monomial
from .polarization import (
    b_shift,
    bpol_ideal,
    bpol_monomial,
    g_shift,
    sigma_ideal,
    specialize_theta,
    specialize_theta_prime,
)
from .posets import BOTTOM, FinitePoset, build_gamma
from .shelling import ball_check, is_cw_poset, u_of_chain
from .topology import euler_characteristic, frame_complex, strand_exactness

__all__ = ["VerificationError", "full_battery", "cm_battery"]


class VerificationError(Exception):
    pass


# -- complex-level checks -----------------------------------------------------


def check_d2(cplx: FreeComplex):
    """Symbolic d o d = 0, coefficient monomials included."""
    for q in range(2, cplx.top + 1):
        outer = cplx.boundary(q)
        inner = cplx.boundary(q - 1)
        inner_cols = {}
        for (tgt, mid), entry in inner.items():
            inner_cols.setdefault(mid, []).append((tgt, entry))
        acc = {}
        for (mid, col), (s1, c1) in outer.items():
            for tgt, (s2, c2) in inner_cols.get(mid, ()):
                key = (col, tgt, c2 * c1)
                acc[key] = acc.get(key, 0) + s1 * s2
        bad = {k: v for k, v in acc.items() if v}
        if bad:
            raise VerificationError(f"d^2 != 0 in {cplx.kind}: surviving terms {bad}")


def check_minimality(cplx: FreeComplex):
    for q in range(1, cplx.top + 1):
        for pos, (_, coeff) in cplx.boundary(q).items():
            if coeff.degree() < 1:
                raise VerificationError(f"unit coefficient at {pos} in degree {q} of {cplx.kind}")


def check_multidegrees(cplx: FreeComplex):
    """Every entry's coefficient is exactly the source/target degree quotient."""
    for q in range(1, cplx.top + 1):
        for (i, j), (_, coeff) in cplx.boundary(q).items():
            src = cplx.mdegs[q][j]
            tgt = cplx.mdegs[q - 1][i]
            if tgt * coeff != src:
                raise VerificationError(
                    f"multidegree mismatch at ({i},{j}) in degree {q} of {cplx.kind}: "
                    f"{tgt} * {coeff} != {src}"
                )


def check_pair_counts(ideal: MonomialIdeal, cplx: FreeComplex):
    """Enumerated basis sizes match the binomial count per generator."""
    for q in range(cplx.top + 2):
        expected = sum(comb(m.max_var() - 1, q) for m in ideal.gens)
        actual = len(cplx.basis[q]) if q <= cplx.top else 0
        if actual != expected:
            raise VerificationError(
                f"|A_{q}| = {actual}, binomial count gives {expected} ({cplx.kind})"
            )


def check_frame_invariance(cplx: FreeComplex, *specialized: FreeComplex):
    base = frame_complex(cplx)
    for other in specialized:
        fr = frame_complex(other)
        if fr.ranks != base.ranks or fr.cols != base.cols:
            raise VerificationError(f"frame of {other.kind} differs from frame of {cplx.kind}")


def check_strands(cplx: FreeComplex, gens):
    report = strand_exactness(cplx, gens)
    if not report.ok:
        raise VerificationError(
            f"strand exactness fails for {cplx.kind}: {report.first_failure()}"
        )
    return report


# -- decomposition function properties -----------------------------------------


def _monomials_up_to(n, deg):
    def rec(slot, remaining):
        if slot == n:
            yield ()
            return
        for e in range(remaining + 1):
            for rest in rec(slot + 1, remaining - e):
                yield (e,) + rest

    for exps in rec(0, deg):
        yield Monomial(exps)


def check_g_properties(ideal: MonomialIdeal):
    deg_bound = ideal.max_deg() + 1
    members = [m for m in _monomials_up_to(ideal.n, deg_bound) if m in ideal]
    for m in members:
        ideal.g(m, check=True)  # lex-greatest divisor vs max/min witness
    for m in ideal.gens:
        for i in range(1, ideal.n + 1):
            gi = ideal.g(m.times_var(i))
            if gi < m:
                raise VerificationError(f"g(x{i}*{m}) = {gi} is below {m}")
            if (gi == m) != (i >= m.max_var()):
                raise VerificationError(f"g(x{i}*{m}) = {m} fixpoint condition fails at i={i}")
    small = [m for m in _monomials_up_to(ideal.n, 2)]
    for m in small:
        for nmem in members:
            if m.degree() + nmem.degree() > deg_bound + 2:
                continue
            lhs = ideal.g(m * ideal.g(nmem))
            rhs = ideal.g(m * nmem)
            if lhs != rhs:
                raise VerificationError(f"g({m}*g({nmem})) = {lhs} != g({m}*{nmem}) = {rhs}")


# -- poset-level checks ----------------------------------------------------------


def check_cover_support(poset: FinitePoset, cplx: FreeComplex):
    """The covers into each basis element match its differential column."""
    down = {e: set(poset.down_covers(e)) for e in poset.elements}
    for pair in cplx.basis[0]:
        if down[pair] != {BOTTOM}:
            raise VerificationError(f"{pair!r} should cover exactly the bottom")
    for q in range(1, cplx.top + 1):
        layer = cplx.basis[q]
        prev = cplx.basis[q - 1]
        col_targets = {}
        for (i, j), _ in cplx.boundary(q).items():
            col_targets.setdefault(j, set()).add(prev[i])
        for j, pair in enumerate(layer):
            if down[pair] != col_targets.get(j, set()):
                raise VerificationError(f"covers of {pair!r} differ from differential support")


def check_thin(poset: FinitePoset, kind: str, ideal: MonomialIdeal):
    if not poset.is_thin():
        raise VerificationError(f"{kind} poset of {ideal!r} is not thin")


def check_intervals(kind: str, dual: FinitePoset, ideal: MonomialIdeal) -> int:
    """The EL sweep over all intervals of the dual poset, with more checks on
    each interval's report.

    Verifies, per interval: injectivity of the labeling on chains, the EL
    conditions (unique weakly increasing maximal chain, strictly lex-least),
    the lcm identity for the positive part of the increasing chain, the
    minimal-support characterization of the positive labels (classical kind),
    and realizability of the label swap / rotation rewrites.  Returns the
    number of intervals.
    """
    # Called through the module, so that a wrapper installed on
    # shelling.verify_el_all (bench/tracer.py) also sees this sweep.
    reports = shelling.verify_el_all(kind, dual, ideal)
    for rep in reports:
        a, b, labels = rep.bottom, rep.top, rep.labels
        labelset = set(labels)
        if len(labelset) != len(labels):
            raise VerificationError(f"label tuples repeat on [{a!r}, {b!r}]")
        if rep.increasing_chains != 1:
            raise VerificationError(
                f"{rep.increasing_chains} increasing maximal chains on [{a!r}, {b!r}]"
            )
        if not rep.lex_least:
            raise VerificationError(f"increasing chain not lex-least on [{a!r}, {b!r}]")
        if b is not BOTTOM:
            try:
                u_of_chain(kind, rep.increasing_chain, ideal)
            except RuntimeError as exc:  # the lcm identity fails
                raise VerificationError(f"lcm identity fails on [{a!r}, {b!r}]: {exc}") from exc
            if kind == "ek":
                _check_minimal_support(ideal, a, b, rep.increasing_label)
        _check_label_rewrites(kind, labels, labelset, a, b)
    return len(reports)


def _check_minimal_support(ideal, a, b, lab0):
    diff = sorted(set(a.F) - set(b.F))
    hits = []
    for size in range(len(diff) + 1):
        for G in combinations(diff, size):
            if ideal.g(Monomial.from_factors(ideal.n, G) * a.m) == b.m:
                hits.append(set(G))
    minimal = [G for G in hits if not any(H < G for H in hits)]
    positive = {x for x in lab0 if x > 0}
    if len(minimal) != 1 or minimal[0] != positive:
        raise VerificationError(
            f"minimal shift supports {minimal} vs positive labels {positive} "
            f"on [{a!r}, {b!r}]"
        )


def _check_label_rewrites(kind, labels, labelset, a, b):
    for lab in labels:
        q = len(lab)
        for r in range(2, q + 1):
            prev_l, cur_l = lab[r - 2], lab[r - 1]
            if kind == "modified":
                swapped = lab[: r - 2] + (cur_l, prev_l) + lab[r:]
                if cur_l < 0 and swapped not in labelset:
                    raise VerificationError(
                        f"negative label not commutable in {lab} at {r} on [{a!r}, {b!r}]"
                    )
                if prev_l > 0 and swapped not in labelset:
                    replaced = lab[: r - 2] + (-prev_l,) + lab[r - 1 :]
                    if replaced not in labelset:
                        raise VerificationError(
                            f"positive label not negatable in {lab} at {r} on [{a!r}, {b!r}]"
                        )
            elif cur_l < 0:
                rotated = (cur_l,) + lab[: r - 1] + lab[r:]
                if rotated not in labelset:
                    raise VerificationError(
                        f"negative label not rotatable in {lab} at {r} on [{a!r}, {b!r}]"
                    )


# -- polarization shift lemmas -----------------------------------------------------


def check_shift_instances(ideal: MonomialIdeal):
    """Pointwise checks of the exchange-shift identities on all admissible
    pairs: the lcm form of the removed variable, prefix agreement of the
    shifted generator, and the B-set stability and commutation statements."""
    for m in ideal.gens:
        for s in range(1, m.max_var()):
            fb = b_shift(m, s)
            if fb not in ideal:
                raise VerificationError(f"exchange b_{s}({m}) = {fb} left the ideal")
            ms = g_shift(ideal, m, s)
            if any(ms.deg(l) != fb.deg(l) for l in range(1, s + 1)):
                raise VerificationError(f"m_<{s}> = {ms} disagrees with {fb} below slot {s}")
            if ms.max_var() < s:
                raise VerificationError(f"max(m_<{s}>) < {s} for m = {m}")
            if not ms > m:
                raise VerificationError(f"m_<{s}> = {ms} not above m = {m}")

    for layer in admissible_layers(ideal, "modified"):
        for pair in layer:
            wm = pair.lift()
            bset = set(b_set(ideal, pair.F, pair.m, "modified"))
            for i in pair.F:
                wms = bpol_monomial(g_shift(ideal, pair.m, i))
                var = pair.variable(i)
                if wm.lcm(wms).div(wm) != var:
                    raise VerificationError(f"lcm quotient of {pair!r} at {i} is not {var}")
            _check_bset_relations(ideal, pair, bset)


def _check_bset_relations(ideal, pair, bset):
    F, m = pair.F, pair.m
    if len(F) < 2:
        return

    def in_b(i, rest, m2):
        return i in b_set(ideal, rest, m2, "modified")

    shift = {i: g_shift(ideal, m, i) for i in F}
    for r in F:
        for s in F:
            if r == s:
                continue
            rest_s = tuple(k for k in F if k != s)
            if r in bset and not in_b(r, rest_s, m):
                raise VerificationError(f"{r} leaves the B set of {pair!r} after dropping {s}")
            if r in bset and s in bset:
                sr = g_shift(ideal, shift[s], r) if r < shift[s].max_var() else None
                rs = g_shift(ideal, shift[r], s) if s < shift[r].max_var() else None
                if sr is None or rs is None or sr != rs:
                    raise VerificationError(
                        f"iterated shifts differ on {pair!r}: ({s},{r}) -> {sr}, "
                        f"({r},{s}) -> {rs}"
                    )
                rest_r = tuple(k for k in F if k != r)
                if in_b(r, rest_s, shift[s]) != in_b(s, rest_r, shift[r]):
                    raise VerificationError(f"B-membership not symmetric for {r},{s} on {pair!r}")
            if r not in bset and s in bset:
                in_shifted = in_b(r, rest_s, shift[s])
                if in_shifted != in_b(r, rest_s, m):
                    raise VerificationError(
                        f"mixed B-membership differs for {r} (after {s}) on {pair!r}"
                    )
                if in_shifted and shift[r] != g_shift(ideal, shift[s], r):
                    raise VerificationError(
                        f"mixed iterated shift differs for {r},{s} on {pair!r}"
                    )


# -- Cohen-Macaulay structure -------------------------------------------------------


def _find_power_completion(ideal, base, h, min_l):
    cap = ideal.max_deg() + 1
    xh = Monomial.variable(ideal.n, h)
    gens = set(ideal.gens)
    for l in range(min_l, cap + 1):
        if base * (xh ** l) in gens:
            return l
    return None


def check_cm_generator_exchanges(ideal: MonomialIdeal, h: int):
    """For CM ideals: dropping any support variable of a generator can be
    completed back into a generator with a power of x_h (stable form), resp.
    with x_{k+1} and a power of x_h (Borel form)."""
    for m in ideal.gens:
        for k in m.support():
            if _find_power_completion(ideal, m.div_var(k), h, 1) is None:
                raise VerificationError(f"no power of x{h} completes {m}/x{k} into a generator")
    if ideal.is_borel_fixed():
        for m in ideal.gens:
            for k in m.support():
                if k >= h:
                    continue
                base = m.div_var(k).times_var(k + 1)
                if base not in ideal.gens and _find_power_completion(ideal, base, h, 1) is None:
                    raise VerificationError(
                        f"no power of x{h} completes ({m}/x{k})*x{k + 1} into a generator"
                    )


def check_interval_decomposition(kind: str, ideal: MonomialIdeal, poset: FinitePoset, h: int):
    """The poset is the union of the lower intervals of the full pairs over
    the top-variable generators, and consecutive intersections are the
    predicted interval unions (classical) / have the predicted maximal
    elements (modified)."""
    tops = ideal.top_generators()
    full = tuple(range(1, h))
    full_pairs = [AdmissiblePair(full, m, kind) for m in tops]
    intervals = [set(poset.interval_set(BOTTOM, p)) for p in full_pairs]
    if set().union(*intervals) != set(poset.elements):
        raise VerificationError(f"{kind} poset is not covered by the full-pair intervals")
    for jj in range(1, len(tops)):
        inter = set().union(*intervals[:jj]) & intervals[jj]
        m = tops[jj]
        expected_tops = {
            AdmissiblePair(tuple(x for x in full if x != s), m, kind)
            for s in m.support()
            if s != h
        }
        if kind == "ek":
            expected = set()
            for p in expected_tops:
                expected |= set(poset.interval_set(BOTTOM, p))
            if inter != expected:
                raise VerificationError(
                    f"intersection with interval {jj} differs from predicted union ({kind})"
                )
        maximal = {
            x for x in inter if not any(y != x and poset.lt(x, y) for y in inter)
        }
        if maximal != expected_tops:
            raise VerificationError(
                f"maximal elements of intersection {jj} are {maximal}, "
                f"expected {expected_tops} ({kind})"
            )


# -- batteries ---------------------------------------------------------------------


def full_battery(ideal: MonomialIdeal) -> dict:
    """Everything the randomized suite asserts for one Borel fixed ideal.

    Strand exactness of the four complexes is certified over Q.  The CW
    certificate of each cell poset is asserted piece by piece: thin, a least
    element, and a passing EL sweep of the dual (``check_intervals``).
    """
    if not ideal.is_borel_fixed():
        raise VerificationError(f"{ideal!r} is not Borel fixed")
    cek = ek_complex(ideal)
    cmod = modified_complex(ideal)
    ctheta = specialize_theta(cmod)
    cthetap = specialize_theta_prime(cmod)
    for c in (cek, cmod, ctheta, cthetap):
        check_d2(c)
        check_minimality(c)
        check_multidegrees(c)
    check_pair_counts(ideal, cek)
    check_pair_counts(ideal, cmod)
    if cek.ranks != cmod.ranks:
        raise VerificationError(f"classical ranks {cek.ranks} != modified ranks {cmod.ranks}")
    check_frame_invariance(cmod, ctheta, cthetap)
    check_strands(cek, list(ideal.gens))
    check_strands(cmod, bpol_ideal(ideal))
    check_strands(ctheta, list(ideal.gens))
    check_strands(cthetap, list(sigma_ideal(ideal).gens))
    check_g_properties(ideal)
    check_shift_instances(ideal)

    stats = {"ranks": cek.ranks}
    for kind, cplx in (("ek", cek), ("modified", cmod)):
        poset = build_gamma(kind, ideal)
        check_cover_support(poset, cplx)
        check_thin(poset, kind, ideal)
        if len(poset.minimal_elements()) != 1:
            raise VerificationError(f"{kind} poset not bounded below")
        stats[f"intervals_{kind}"] = check_intervals(kind, poset.dual(), ideal)
    return stats


def cm_battery(ideal: MonomialIdeal) -> dict:
    """Structure and ball certification for one Cohen-Macaulay Borel ideal.

    Each shelling search runs under ``ball_check``'s default node budget; a
    verdict other than "ball-certified" raises.
    """
    is_cm, h, l_power = ideal.is_cm_stable()
    if not is_cm:
        raise VerificationError(f"{ideal!r} is not Cohen-Macaulay")
    check_cm_generator_exchanges(ideal, h)
    stats = {"h": h, "l": l_power}
    for kind in ("ek", "modified"):
        poset = build_gamma(kind, ideal)
        if not poset.is_pure():
            raise VerificationError(f"{kind} poset of CM ideal not pure")
        if euler_characteristic(poset) != 1:
            raise VerificationError(f"{kind} poset of CM ideal has Euler characteristic != 1")
        check_interval_decomposition(kind, ideal, poset, h)
        cw = is_cw_poset(poset, kind, ideal)
        if not cw[0]:
            raise VerificationError(f"{kind} poset not certified CW: {cw[1]}")
        verdict = ball_check(poset, kind, ideal, cw_result=cw)
        if verdict.verdict != "ball-certified":
            raise VerificationError(
                f"{kind} ball check returned {verdict.verdict}: {verdict.detail}"
            )
        # the shelling order of a certified ball lists each facet once
        stats[f"facets_{kind}"] = len(verdict.constructible_certificate)
    return stats
