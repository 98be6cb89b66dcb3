"""The benchmark's metrics, and which layer moves which end-to-end metric on
which workload.  ``BENCHMARK.json`` lists the same names and units; the
smoke test keeps the two in step.
"""

RS, CM, VL = "random-structural", "cm-ball", "verify-ladder"
ALL = (RS, CM, VL)

# name -> (unit, better, bound, what it measures)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "import ekcells and build the inputs; median of 5 set-ups, at the reference speed"),
    "wall_s": ("s", "lower", 0.25, "median wall time of a pass, at the reference speed"),
    "ideal_ms_p50": ("ms", "lower", 0.25, "median over inputs of the per-input median time, at the reference speed"),
    "ideal_ms_tail": ("ms", "lower", 0.25, "highest percentile with 10 inputs beyond it (else the maximum), at the reference speed"),
    "peak_rss_mb": ("MB", "lower", 0.05, "peak resident memory of the process"),
}

RUNGS = (
    "deg2", "tri-tri", "tri-sq", "deg4", "intro",
    "pow3-2", "pow3-3", "pow3-4", "pow4-2", "pow4-3", "pow4-4", "pow5-2",
)

# name -> (unit, better, end-to-end metrics it moves, workloads it runs on).
# Times are self time in the traced run; counts are per pass.
PER_LAYER = {
    "ek.build_s": ("s", "lower", ("wall_s",), (RS, VL)),
    "modified.build_s": ("s", "lower", ("wall_s",), (RS, VL)),
    "polarization.specialize_s": ("s", "lower", ("wall_s",), (RS,)),
    "ek.basis": ("count", "lower", ("wall_s",), (RS, VL)),
    "modified.basis": ("count", "lower", ("wall_s",), (RS, VL)),
    "verification.battery_s": ("s", "lower", ("wall_s", "ideal_ms_p50"), (RS, CM)),
    "verification.complex_checks_s": ("s", "lower", ("wall_s", "ideal_ms_p50"), (RS, VL)),
    "verification.g_shift_s": ("s", "lower", ("wall_s", "ideal_ms_p50"), (RS,)),
    "verification.intervals_s": ("s", "lower", ("wall_s", "ideal_ms_p50"), (RS,)),
    "verification.intervals": ("count", "lower", ("wall_s", "ideal_ms_p50"), (RS,)),
    "verification.poset_checks_s": ("s", "lower", ("wall_s", "ideal_ms_p50"), (RS,)),
    "verification.cm_checks_s": ("s", "lower", ("wall_s", "ideal_ms_p50"), (CM,)),
    "topology.strands_s": ("s", "lower", ("wall_s",), (RS, VL)),
    "topology.strands": ("count", "lower", ("wall_s",), (RS, VL)),
    "topology.strand_ranks": ("count", "lower", ("wall_s",), (RS, VL)),
    "topology.homology_s": ("s", "lower", ("wall_s", "ideal_ms_tail", "peak_rss_mb"), (CM, VL)),
    "topology.chain_complex_s": ("s", "lower", ("wall_s", "ideal_ms_tail", "peak_rss_mb"), (CM, VL)),
    "topology.homology_cells": ("count", "lower", ("wall_s", "ideal_ms_tail", "peak_rss_mb"), (CM, VL)),
    "topology.homology_entries": ("count", "lower", ("wall_s", "ideal_ms_tail", "peak_rss_mb"), (CM, VL)),
    "topology.homology_nnz": ("count", "lower", ("wall_s", "ideal_ms_tail", "peak_rss_mb"), (CM, VL)),
    "posets.build_s": ("s", "lower", ("wall_s",), ALL),
    "posets.elements": ("count", "lower", ("wall_s",), ALL),
    "posets.order_complex_s": ("s", "lower", ("wall_s",), (CM, VL)),
    "posets.facets": ("count", "lower", ("wall_s",), (CM, VL)),
    "posets.isomorphism_s": ("s", "lower", ("wall_s",), (VL,)),
    "posets.chains_between_calls": ("count", "lower", ("wall_s",), ALL),
    "shelling.el_sweep_s": ("s", "lower", ("wall_s",), ALL),
    "shelling.is_cw_s": ("s", "lower", ("wall_s",), ALL),
    "shelling.el_intervals": ("count", "lower", ("wall_s",), ALL),
    "shelling.search_s": ("s", "lower", ("wall_s",), (CM, VL)),
    "shelling.search_calls": ("count", "lower", ("wall_s",), (CM, VL)),
    "shelling.ball_check_s": ("s", "lower", ("wall_s",), (CM, VL)),
    "shelling.ball_certified": ("count", "higher", ("wall_s",), (CM, VL)),
    "shelling.ball_refuted": ("count", "lower", ("wall_s",), (VL,)),
    "shelling.ball_inconclusive": ("count", "lower", ("wall_s",), (CM, VL)),
    "monomials.str_calls": ("count", "lower", ("wall_s",), (RS,)),
    "ideals.generate_s": ("s", "lower", ("setup_s",), (RS, CM)),
    "cli.verify_s": ("s", "lower", ("wall_s",), (VL,)),
    **{f"cli.verify_s.{r}": ("s", "lower", ("wall_s",), (VL,)) for r in RUNGS},
    "cli.json_bytes": ("bytes", "lower", ("wall_s",), (VL,)),
    "trace.overhead_s": ("s", "lower", (), ALL),
}
