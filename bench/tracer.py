"""Span and counter tracing around the calls into ``ekcells`` layers.

The traced run replaces module attributes that callers resolve at call time
(for example ``ekcells.verification.ek_complex``) with timing wrappers, and
puts the originals back on exit.  Nothing here runs unless a ``Tracer`` is
entered, so the untraced run executes the package unmodified.

Each span is ``[name, start, end, done, parent]``: ``end`` is when the call
returned and ``done`` is after the wrapper finished its own counting, so the
counting is charged neither to the span nor to its parent.  A span's self
time is ``end - start`` minus the ``done - start`` of its direct children.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from ekcells import cli, ideals, posets, shelling, topology, verification
from ekcells.monomials import Monomial

NAME, START, END, DONE, PARENT = range(5)


def _basis(counts, key):
    def count(_args, result):
        counts[key] += sum(result.ranks)
    return count


def _homology(counts, _key):
    def count(args, _result):
        cplx = args[0]
        counts["topology.homology_cells"] += sum(cplx.ranks)
        for mat in cplx.mats:
            counts["topology.homology_entries"] += len(mat) * (len(mat[0]) if mat else 0)
            counts["topology.homology_nnz"] += sum(1 for row in mat for x in row if x)
    return count


def _ball(counts, _key):
    def count(_args, verdict):
        key = {"ball-certified": "certified"}.get(verdict.verdict, verdict.verdict)
        counts[f"shelling.ball_{key}"] += 1
    return count


def _calls(counts, key):
    def count(_args, _result):
        counts[key] += 1
    return count


def _total(counts, key, size=len):
    def count(_args, result):
        counts[key] += size(result)
    return count


def _strands(counts, key):
    return _total(counts, key, lambda report: report.strands_checked)


def _facets(counts, key):
    return _total(counts, key, lambda data: len(data.facets))


def _intervals(counts, key):
    return _total(counts, key, lambda checked: checked)


# (owner, attribute, span name, counter factory, counter name).  The owner
# is where the caller looks the name up, so one function imported into two
# modules is wrapped in both.
SPANS = [
    (verification, "ek_complex", "ek.build_s", _basis, "ek.basis"),
    (cli, "ek_complex", "ek.build_s", _basis, "ek.basis"),
    (verification, "modified_complex", "modified.build_s", _basis, "modified.basis"),
    (cli, "modified_complex", "modified.build_s", _basis, "modified.basis"),
    (verification, "specialize_theta", "polarization.specialize_s", None, None),
    (verification, "specialize_theta_prime", "polarization.specialize_s", None, None),
    (verification, "check_d2", "verification.complex_checks_s", None, None),
    (verification, "check_minimality", "verification.complex_checks_s", None, None),
    (verification, "check_multidegrees", "verification.complex_checks_s", None, None),
    (verification, "check_pair_counts", "verification.complex_checks_s", None, None),
    (verification, "check_frame_invariance", "verification.complex_checks_s", None, None),
    (cli, "check_d2", "verification.complex_checks_s", None, None),
    (cli, "check_minimality", "verification.complex_checks_s", None, None),
    (cli, "check_multidegrees", "verification.complex_checks_s", None, None),
    (verification, "check_g_properties", "verification.g_shift_s", None, None),
    (verification, "check_shift_instances", "verification.g_shift_s", None, None),
    (verification, "check_intervals", "verification.intervals_s", _intervals, "verification.intervals"),
    (verification, "check_cover_support", "verification.poset_checks_s", None, None),
    (verification, "check_thin", "verification.poset_checks_s", None, None),
    (verification, "check_cm_generator_exchanges", "verification.cm_checks_s", None, None),
    (verification, "check_interval_decomposition", "verification.cm_checks_s", None, None),
    (verification, "full_battery", "verification.battery_s", None, None),
    (verification, "cm_battery", "verification.battery_s", None, None),
    (verification, "strand_exactness", "topology.strands_s", _strands, "topology.strands"),
    (cli, "strand_exactness", "topology.strands_s", _strands, "topology.strands"),
    (topology, "homology_ranks", "topology.homology_s", _homology, None),
    (cli, "homology_ranks", "topology.homology_s", _homology, None),
    (topology, "simplicial_chain_complex", "topology.chain_complex_s", None, None),
    (cli, "frame_complex", "topology.chain_complex_s", None, None),
    (verification, "build_gamma", "posets.build_s", _total, "posets.elements"),
    (cli, "build_gamma", "posets.build_s", _total, "posets.elements"),
    (posets.FinitePoset, "order_complex", "posets.order_complex_s", _facets, "posets.facets"),
    (cli, "poset_isomorphic", "posets.isomorphism_s", None, None),
    (shelling, "verify_el_all", "shelling.el_sweep_s", _total, "shelling.el_intervals"),
    (cli, "verify_el_all", "shelling.el_sweep_s", _total, "shelling.el_intervals"),
    (verification, "is_cw_poset", "shelling.is_cw_s", None, None),
    (shelling, "is_cw_poset", "shelling.is_cw_s", None, None),
    (cli, "is_cw_poset", "shelling.is_cw_s", None, None),
    (shelling, "find_shelling", "shelling.search_s", _calls, "shelling.search_calls"),
    (verification, "ball_check", "shelling.ball_check_s", _ball, None),
    (cli, "ball_check", "shelling.ball_check_s", _ball, None),
    (ideals, "random_borel_ideal", "ideals.generate_s", None, None),
    (cli, "main", "cli.verify_s", None, None),
]

# Hot calls get a counter only: a span each would cost more than the work.
COUNTERS = [
    (posets.FinitePoset, "chains_between", "posets.chains_between_calls"),
    (Monomial, "__str__", "monomials.str_calls"),
    (topology, "rank_int", "topology.strand_ranks"),
    (topology, "rank_mod_p", "topology.strand_ranks"),
]


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, factory, key in SPANS:
            count = factory(self.counts, key) if factory else None
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, count))
        for owner, attr, key in COUNTERS:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), key))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__}.{attr} is not defined there")
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = span[DONE] = perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
                span[DONE] = perf_counter()
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark(self) -> int:
        """Position in the span list, to slice out the spans of one input."""
        return len(self.spans)

    def self_times(self, lo=0, hi=None) -> dict:
        """Self time per span name over the spans ``lo:hi``."""
        hi = len(self.spans) if hi is None else hi
        child_time = defaultdict(float)
        for k in range(lo, hi):
            span = self.spans[k]
            if span[PARENT] >= lo:
                child_time[span[PARENT]] += span[DONE] - span[START]
        out = defaultdict(float)
        for k in range(lo, hi):
            span = self.spans[k]
            out[span[NAME]] += span[END] - span[START] - child_time[k]
        return dict(out)

    def write(self, path):
        """Write every span as ``[index, name, start, end, parent]`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, done, parent) in enumerate(self.spans):
                fh.write(json.dumps([k, name, start, end, parent]) + "\n")

