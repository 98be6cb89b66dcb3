"""Structural checks on the constructed complexes and posets.

Each ``check_*`` function raises :class:`VerificationError` with a concrete
counterexample message on failure and returns quietly on success.
``full_battery`` / ``cm_battery`` bundle everything the randomized suites
assert per ideal.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import add, le

from . import shelling
from .complexes import FreeComplex
from .ek import (
    AdmissiblePair,
    _attached,
    _b_indices,
    _shift_entry,
    admissible_layers,
    ek_complex,
    kind_of,
    modified_complex,
)
from .ideals import MonomialIdeal
from .monomials import Monomial, square_items, square_str
from .polarization import (
    b_shift,
    bpol_lifts,
    sigma_ideal,
    specialize_theta,
    specialize_theta_prime,
)
from .posets import BOTTOM, FinitePoset, build_gamma
from .shelling import ball_check, is_cw_poset
from .topology import strand_exactness

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
        for (tgt, mid), (s2, c2) in inner.items():
            inner_cols.setdefault(mid, []).append((tgt, s2, c2.exps))
        acc = {}  # (col, tgt, exponents of the coefficient) -> summed sign
        for (mid, col), (s1, c1) in outer.items():
            e1 = c1.exps
            for tgt, s2, e2 in inner_cols.get(mid, ()):
                key = (col, tgt, tuple(map(add, e2, e1)))
                acc[key] = acc.get(key, 0) + s1 * s2
        bad = {k: v for k, v in acc.items() if v}
        if bad:
            terms = {(col, tgt, square_str(Monomial._of(e), cplx.squares)): v
                     for (col, tgt, e), v in bad.items()}
            raise VerificationError(f"d^2 != 0 in {cplx.kind}: surviving terms {terms}")


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
            if tuple(map(add, tgt.exps, coeff.exps)) != src.exps:
                tgt, coeff, src = (square_str(m, cplx.squares) for m in (tgt, coeff, src))
                raise VerificationError(
                    f"multidegree mismatch at ({i},{j}) in degree {q} of {cplx.kind}, "
                    f"cell {cplx.basis[q][j]!r}: {tgt} * {coeff} != {src}"
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


def _frame_signs(cplx: FreeComplex) -> list:
    """Each differential of ``cplx`` as its {position: sign} map: with the
    ranks, all that its frame complex reads."""
    return [{pos: sign for pos, (sign, _) in mat.items()} for mat in cplx.diffs]


def check_frame_invariance(cplx: FreeComplex, *specialized: FreeComplex):
    """The complexes share ranks and signs, so one frame complex."""
    base = _frame_signs(cplx)
    for other in specialized:
        if other.ranks != cplx.ranks or _frame_signs(other) != base:
            raise VerificationError(f"frame of {other.kind} differs from frame of {cplx.kind}")


def check_strands(cplx: FreeComplex, gens):
    report = strand_exactness(cplx, gens)
    if not report.ok:
        raise VerificationError(
            f"strand exactness fails for {cplx.kind}: {report.first_failure()}"
        )


# -- decomposition function properties -----------------------------------------


def _exponents_up_to(n, deg):
    """The exponent tuples of the monomials of degree <= deg in n variables,
    in ascending (lex) order."""
    out = [()]
    for _ in range(n):
        out = [t + (e,) for t in out for e in range(deg - sum(t) + 1)]
    return out


def check_g_properties(ideal: MonomialIdeal):
    deg_bound = ideal.max_deg() + 1
    gens = [(m0, m0.exps, m0.max_var() - 1) for m0 in ideal.gens]
    # the members up to deg_bound, each with its dividing generators
    members = [(e, found) for e in _exponents_up_to(ideal.n, deg_bound)
               if (found := [g for g in gens if all(map(le, g[1], e))])]
    # the lex-greatest divisor g(m) against the max/min witnesses of each
    # member: the divisors m0 with max(m0) <= min(m / m0), that is those
    # that agree with m below slot max(m0)
    g_members = [ideal.g(Monomial._of(e)) for e, _ in members]
    for (e, found), gm in zip(members, g_members):
        witnesses = [m0 for m0, e0, top in found if e0[:top] == e[:top]]
        if witnesses != [gm]:
            raise RuntimeError(
                f"decomposition characterizations disagree on {Monomial._of(e)}: "
                f"lex-greatest {gm}, max/min witnesses {witnesses}"
            )
    for m in ideal.gens:
        for i in range(1, ideal.n + 1):
            gi = ideal.g(m.times_var(i))
            if gi < m:
                raise VerificationError(f"g(x{i}*{m}) = {gi} is below {m}")
            if (gi == m) != (i >= m.max_var()):
                raise VerificationError(f"g(x{i}*{m}) = {m} fixpoint condition fails at i={i}")
    # g(m * g(n)) = g(m * n), each distinct product looked up in g once.  The
    # products are keyed by packed ints, one field per variable: a field
    # holds deg_bound + 2, the largest exponent of m * n, so packed sums
    # carry nothing and add as the exponent tuples do
    width = (deg_bound + 2).bit_length()

    def pack(exps):
        return sum(e << width * k for k, e in enumerate(exps))

    products = {}

    def g_of(key, me, exps):  # a product not looked up yet (a Monomial is never falsy)
        found = products[key] = ideal.g(Monomial._of(tuple(map(add, me, exps))))
        return found

    pairs = [(pack(ne), pack(gn.exps), ne, gn.exps) for (ne, _), gn in zip(members, g_members)]
    for me in _exponents_up_to(ideal.n, 2):
        mp = pack(me)
        for np_, gp, ne, ge in pairs:
            lk, rk = mp + gp, mp + np_
            lhs = products.get(lk) or g_of(lk, me, ge)
            rhs = products.get(rk) or g_of(rk, me, ne)
            if lhs.exps != rhs.exps:
                m, nmem = Monomial._of(me), Monomial._of(ne)
                raise VerificationError(f"g({m}*g({nmem})) = {lhs} != g({m}*{nmem}) = {rhs}")


# -- poset-level checks ----------------------------------------------------------


def check_cover_support(poset: FinitePoset, cplx: FreeComplex):
    """The cell poset supports the resolution: the covers into each basis
    element match its differential column, and each cell of dimension >= 1
    has the lcm of the multidegrees of the cells it covers as its own (so,
    by induction, the lcm of its vertices' multidegrees)."""
    for pair in cplx.basis[0]:
        if set(poset.down_covers(pair)) != {BOTTOM}:
            raise VerificationError(f"{pair!r} should cover exactly the bottom")
    for q in range(1, cplx.top + 1):
        support = [set() for _ in cplx.basis[q]]
        for i, j in cplx.boundary(q):
            support[j].add(i)
        prev, prev_mdegs = cplx.basis[q - 1], cplx.mdegs[q - 1]
        for pair, mdeg, rows in zip(cplx.basis[q], cplx.mdegs[q], support):
            if set(poset.down_covers(pair)) != {prev[i] for i in rows}:
                raise VerificationError(f"covers of {pair!r} differ from differential support")
            lcm = tuple(map(max, zip(*[prev_mdegs[i].exps for i in rows]))) if rows else None
            if mdeg.exps != lcm:
                lcm = lcm and Monomial._of(lcm)
                mdeg, lcm = (m and square_str(m, cplx.squares) for m in (mdeg, lcm))
                raise VerificationError(
                    f"multidegree {mdeg} of {pair!r} is not the lcm {lcm} of the cells it covers"
                )


def check_thin(poset: FinitePoset, kind: str, ideal: MonomialIdeal):
    if not poset.is_thin():
        raise VerificationError(f"{kind} poset of {ideal!r} is not thin")


def check_intervals(cplx: FreeComplex, dual: FinitePoset, ideal: MonomialIdeal) -> int:
    """The EL sweep over all intervals of the dual of ``cplx``'s cell poset,
    with more checks on its labels and on each interval's report.

    Verifies: injectivity of the labeling on the maximal chains of each
    interval, realizability of the label swap, negation and rotation
    rewrites, and per interval the EL conditions (unique weakly increasing
    maximal chain, strictly lex-least), the lcm identity for the positive
    part of the increasing chain, and the minimal-support characterization of
    the positive labels (classical kind).  Returns the number of intervals.

    Injectivity and the rewrites are checked locally, on the sweep's cover
    labels, and each local check is equivalent to the global one:

    * Two distinct maximal chains of [a, b] part at some element x, onto two
      covers of x, after equal prefixes.  Where the labels out of every
      element are pairwise distinct, their words differ there, so no interval
      repeats a word.  Where two labels out of x tie, the chains from x are
      listed (at most ``_TIE_CHAINS`` of them): a repeat on [a, b] also
      repeats on [x, b] for the x where its chains part.
    * The rewrites ask, of each maximal chain of each interval and each pair
      (p, c) of adjacent labels on it, for a chain of that interval with those
      two labels rewritten and the rest kept: (c, p) when c < 0, and (c, p) or
      (-p, c) when p > 0 (modified kind); c moved to the front when c < 0
      (classical kind).  The rank-2 intervals [x, z] are among the intervals
      (the dual is graded, so they are the z two covers above x), so the
      global test implies the test on them alone, where the rotation is the
      swap.  Conversely a rank-2 chain x < y' < z with the rewritten labels,
      spliced into any chain through x < y < z in place of y, keeps the
      prefix and suffix of that chain, and a rotation is a run of adjacent
      swaps of a negative label; so the rank-2 test implies the global one.

    The two per-interval identities depend on keys, not on intervals, so
    each is computed once per key, at the first interval that has it, and
    the first failure is the same as checking every interval: the lcm
    identity on (a.m, b.m, the increasing chain's positive labels), which fix
    both of its sides; and g(x_G a.m), for the minimal supports, on (a.m, G).

    The intervals and their increasing words are read off the sweep's
    records (``ELSweep.intervals``).  Reports are built (``ELSweep.reports``)
    only on a failure: to say how an interval fails EL, or to name the
    increasing chain of a failed lcm identity.  The lcm identity is compared
    on exponent tuples: lift(a.m) plus one in the slot of each positive
    label's attached variable against the elementwise max of the two lifts.
    """
    # Called through the module, so that a wrapper installed on
    # shelling.verify_el_all (bench/tracer.py) also sees this sweep.
    sweep = shelling.verify_el_all(dual, ideal)
    _check_injective(dual, sweep.cover_labels)
    _check_label_rewrites(cplx.kind, dual, sweep.cover_labels)
    squares = cplx.squares  # the ring and the generators' lifts, as built
    lifts = dict(zip((pair.m for pair in cplx.basis[0]), cplx.mdegs[0]))
    variables = _attached(kind_of(cplx.kind), ideal, squares)
    # the slot of each attached variable in the lifts' exponent tuples
    slots = {m: [None] + [x.exps.index(1) for x in xs[1:]] for m, xs in variables.items()}
    holds = set()  # the (a.m, b.m, positive labels) whose lcm identity holds
    shifted = {}   # (a.m, G) -> the exponents of g(x_G a.m), for the minimal supports
    for k, (a, b, word) in enumerate(sweep.intervals()):
        if word is None:  # [a, b] fails EL; its report says how
            rep = sweep.reports()[k]
            if rep.increasing_chains != 1:
                raise VerificationError(
                    f"{rep.increasing_chains} increasing maximal chains on [{a!r}, {b!r}]"
                )
            raise VerificationError(f"increasing chain not lex-least on [{a!r}, {b!r}]")
        if b is BOTTOM:
            continue
        am, bm = a.m, b.m
        positive = tuple(x for x in word if x > 0)
        key = (am.exps, bm.exps, positive)
        if key not in holds:
            at, lift = slots[am], lifts[am].exps
            u = None  # stays None where a label names no index of a
            if max(word) < len(at):
                u = list(lift)
                for i in positive:
                    u[at[i]] += 1
            if u != list(map(max, lift, lifts[bm].exps)):
                try:
                    shelling._positive_part(variables[am], squares,
                                            sweep.reports()[k].increasing_chain,
                                            word, lifts[am], lifts[bm])
                except RuntimeError as exc:  # the lcm identity fails
                    raise VerificationError(
                        f"lcm identity fails on [{a!r}, {b!r}]: {exc}") from exc
            holds.add(key)
        if cplx.kind == "ek":
            _check_minimal_support(ideal, a, b, word, shifted)
    return len(sweep)


# chains listed from an element whose out-labels tie, before injectivity is
# reported undecided
_TIE_CHAINS = 100_000


def _check_injective(dual, labels):
    """No interval repeats a label word; ``labels[i][k]`` labels the cover from
    element i to ``dual._up[i][k]``."""
    els, up = dual.elements, dual._up
    for x, out in enumerate(labels):
        if len(set(out)) == len(out):
            continue
        words, stack, listed = {}, [(x, ())], 0
        while stack:
            i, word = stack.pop()
            if word:
                seen = words.setdefault(i, set())
                if word in seen:
                    raise VerificationError(f"label tuples repeat on [{els[x]!r}, {els[i]!r}]")
                seen.add(word)
                listed += 1
                if listed > _TIE_CHAINS:
                    raise VerificationError(
                        f"labels out of {els[x]!r} tie, and its first {_TIE_CHAINS} chains "
                        "leave injectivity undecided"
                    )
            stack.extend((j, word + (lab,)) for j, lab in zip(up[i], labels[i]))


def _check_label_rewrites(kind, dual, labels):
    """The label rewrites on every rank-2 interval [x, z] of the dual."""
    els, up = dual.elements, dual._up
    for x, ys in enumerate(up):
        words = {}  # z -> the label words of [x, z], in cover order
        for y, p in zip(ys, labels[x]):
            for z, c in zip(up[y], labels[y]):
                words.setdefault(z, []).append((p, c))
        for z, found in words.items():
            for lab in found:
                p, c = lab
                if kind == "modified":
                    if c < 0 and (c, p) not in found:
                        raise VerificationError(
                            f"negative label not commutable in {lab} at 2 on "
                            f"[{els[x]!r}, {els[z]!r}]"
                        )
                    if p > 0 and (c, p) not in found and (-p, c) not in found:
                        raise VerificationError(
                            f"positive label not negatable in {lab} at 2 on "
                            f"[{els[x]!r}, {els[z]!r}]"
                        )
                elif c < 0 and (c, p) not in found:
                    raise VerificationError(
                        f"negative label not rotatable in {lab} at 2 on [{els[x]!r}, {els[z]!r}]"
                    )


def _check_minimal_support(ideal, a, b, lab0, shifted):
    """The positive labels of [a, b]'s increasing chain are the one minimal
    G in a.F - b.F with g(x_G a.m) = b.m.  Subsets come by size, and one that
    contains an earlier hit is skipped, so the hits are the minimal ones.
    ``shifted`` keeps the exponents of g(x_G a.m) by (a.m, G) across the
    intervals of a sweep."""
    bF = b.F
    diff = [i for i in a.F if i not in bF]  # a.F increases, so diff does
    m, hits = a.m.exps, []
    for size in range(len(diff) + 1):
        for G in combinations(diff, size):
            if hits and any(H.issubset(G) for H in hits):
                continue
            gm = shifted.get((m, G))
            if gm is None:
                x_G = Monomial._of(tuple(e + (i in G) for i, e in enumerate(m, 1)))
                gm = shifted[m, G] = ideal.g(x_G).exps
            if gm == b.m.exps:
                hits.append(set(G))
    positive = {x for x in lab0 if x > 0}
    if len(hits) != 1 or hits[0] != positive:
        raise VerificationError(
            f"minimal shift supports {hits} vs positive labels {positive} "
            f"on [{a!r}, {b!r}]"
        )


# -- polarization shift lemmas -----------------------------------------------------


def check_shift_instances(ideal: MonomialIdeal):
    """Pointwise checks of the exchange-shift identities on all admissible
    pairs: the lcm form of the removed variable, prefix agreement of the
    shifted generator, and the B-set stability and commutation statements.

    The identities depend on keys, not on pairs, so each is computed once per
    key and read back for every pair that uses it:

    * m_s = g(b_s(m)) and the indices it keeps depend on (m, s) alone: one
      shift table per call, built like ``ek._resolution``'s
      (``_shift_entry``), gives every m_s, iterated shift and B set below
      (``_b_indices``);
    * the lcm quotient lcm(bpol(m), bpol(m_i)) / bpol(m) = x[i, j(m, i)]
      depends on (m, i) alone, and is checked on ({i}, m), the first pair
      that uses it.  The one-index pairs come before every pair whose B-set
      relations are checked, so the first failure is the same as checking the
      quotient on every pair.
    """
    rules = kind_of("modified")
    table = {}
    for m in ideal.gens:
        row = table[m] = [None]
        for s in range(1, m.max_var()):
            fb = b_shift(m, s)
            if fb not in ideal:
                raise VerificationError(f"exchange b_{s}({m}) = {fb} left the ideal")
            row.append(_shift_entry(rules, ideal, m, s))
            ms = row[s][0]
            if ms.exps[:s] != fb.exps[:s]:
                raise VerificationError(f"m_<{s}> = {ms} disagrees with {fb} below slot {s}")
            if ms.max_var() < s:
                raise VerificationError(f"max(m_<{s}>) < {s} for m = {m}")
            if not ms > m:
                raise VerificationError(f"m_<{s}> = {ms} not above m = {m}")

    squares, lifts = bpol_lifts(ideal)
    for m, row in table.items():
        wm = lifts[m]
        for i in range(1, len(row)):
            quotient = wm.lcm(lifts[row[i][0]]).div(wm)
            square = rules.index(m, i)
            if square_items(quotient, squares) != ((square, 1),):
                raise VerificationError(
                    f"lcm quotient {square_str(quotient, squares)} of "
                    f"{AdmissiblePair._of((i,), m, rules)!r} at {i} "
                    f"is not x[{square[0]},{square[1]}]"
                )

    for layer in admissible_layers(ideal, "modified"):
        for pair in layer:
            _check_bset_relations(table, pair, _b_indices(pair.F, table[pair.m]))


def _check_bset_relations(table, pair, bset):
    F, m = pair.F, pair.m
    # every relation below concerns an index of the B set
    if len(F) < 2 or not bset:
        return
    shift = {i: table[m][i][0] for i in F}
    rest = {s: tuple(k for k in F if k != s) for s in F}
    # the B sets after dropping s, of m and (for s in the B set) of m_s
    b_of_m = {s: _b_indices(rest[s], table[m]) for s in F}
    b_of_ms = {s: _b_indices(rest[s], table[shift[s]]) for s in bset}
    for r in F:
        for s in F:
            if r == s:
                continue
            if r in bset and r not in b_of_m[s]:
                raise VerificationError(f"{r} leaves the B set of {pair!r} after dropping {s}")
            if r in bset and s in bset:
                sr = table[shift[s]][r][0] if r < shift[s].max_var() else None
                rs = table[shift[r]][s][0] if s < shift[r].max_var() else None
                if sr is None or rs is None or sr != rs:
                    raise VerificationError(
                        f"iterated shifts differ on {pair!r}: ({s},{r}) -> {sr}, "
                        f"({r},{s}) -> {rs}"
                    )
                if (r in b_of_ms[s]) != (s in b_of_ms[r]):
                    raise VerificationError(f"B-membership not symmetric for {r},{s} on {pair!r}")
            if r not in bset and s in bset:
                in_shifted = r in b_of_ms[s]
                if in_shifted != (r in b_of_m[s]):
                    raise VerificationError(
                        f"mixed B-membership differs for {r} (after {s}) on {pair!r}"
                    )
                if in_shifted and shift[r] != table[shift[s]][r][0]:
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

    Strand exactness of the four complexes is certified over Q, each through
    ``check_strands``.  The CW certificate of each cell poset is asserted
    piece by piece: thin, a least element, and a passing EL sweep of the dual
    (``check_intervals``).
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
    # lifted apart from the build's slot map, as verify lifts them
    check_strands(cmod, [kind_of("modified").lift(m, cmod.squares) for m in ideal.gens])
    check_strands(ctheta, list(ideal.gens))
    check_strands(cthetap, list(sigma_ideal(ideal).gens))
    check_g_properties(ideal)
    check_shift_instances(ideal)

    stats = {"ranks": cek.ranks}
    for cplx in (cek, cmod):
        kind, poset = cplx.kind, build_gamma(cplx)
        check_cover_support(poset, cplx)
        check_thin(poset, kind, ideal)
        if len(poset.minimal_elements()) != 1:
            raise VerificationError(f"{kind} poset not bounded below")
        stats[f"intervals_{kind}"] = check_intervals(cplx, poset.dual(), ideal)
    return stats


def cm_battery(ideal: MonomialIdeal) -> dict:
    """Structure and ball certification for one Cohen-Macaulay stable ideal,
    of each kind the ideal admits: the classical one always, the modified one
    when the ideal is Borel fixed.

    Each ball check's search runs under ``shelling.NODE_BUDGET``; a verdict
    other than "ball-certified" raises.  ``facets_{kind}`` counts the maximal
    chains of the poset less its least element, the facets of its order
    complex, in one pass over the covers: the chains from the least element
    up to each cell, summed over the top cells.
    """
    is_cm, h, l_power = ideal.is_cm_stable()
    if not is_cm:
        raise VerificationError(f"{ideal!r} is not Cohen-Macaulay")
    check_cm_generator_exchanges(ideal, h)
    stats = {"h": h, "l": l_power}
    for kind, build in (("ek", ek_complex), ("modified", modified_complex)):
        if not kind_of(kind).admits(ideal):
            continue
        cplx = build(ideal)
        poset = build_gamma(cplx)
        if not poset.is_pure():
            raise VerificationError(f"{kind} poset of CM ideal not pure")
        if sum((-1) ** q * r for q, r in enumerate(cplx.ranks)) != 1:
            raise VerificationError(f"{kind} poset of CM ideal has Euler characteristic != 1")
        check_interval_decomposition(kind, ideal, poset, h)
        cw = is_cw_poset(poset, ideal)
        if not cw[0]:
            raise VerificationError(f"{kind} poset not certified CW: {cw[1]}")
        verdict = ball_check(poset, cplx, cw)
        if verdict.verdict != "ball-certified":
            raise VerificationError(
                f"{kind} ball check returned {verdict.verdict}: {verdict.detail}"
            )
        chains = [0] * len(poset)
        for x in poset._order:
            chains[x] = sum(chains[y] for y in poset._down[x]) or 1
        stats[f"facets_{kind}"] = sum(c for c, ups in zip(chains, poset._up) if not ups)
    return stats
