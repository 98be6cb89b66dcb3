"""The benchmark tracer's counters on the CW and battery paths.

``bench/tracer.py`` wraps ``shelling.verify_el_all``, ``build_gamma`` and
``verification.check_intervals`` by name and counts what they return, so a
verdict that stops calling them through those names, or a sweep whose
``len()`` stops counting intervals, reads as zero in every trace.  These tests run the tracer as the benchmark
does and check its counts against the numbers the run itself reports.
"""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

from ekcells import build_gamma, cli, ek_complex, modified_complex, random_borel_ideal
from ekcells.ek import kind_of
from ekcells.shelling import verify_el_all
from ekcells.verification import cm_battery, full_battery

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402


def test_verify_counts_the_intervals_it_reports():
    out = io.StringIO()
    with Tracer() as tracer, redirect_stdout(out):
        assert cli.main(["verify", "--named", "deg2", "--check", "all"]) == 0
    kinds = json.loads(out.getvalue())["kinds"]
    intervals = sum(checks["el"]["intervals"] for checks in kinds.values())
    assert intervals > 0
    assert tracer.counts["shelling.el_intervals"] == intervals
    assert tracer.counts["posets.elements"] > 0


def test_cm_battery_counts_the_intervals_of_its_posets():
    J = random_borel_ideal(random.Random(20260811), cm=True)
    with Tracer() as tracer:
        cm_battery(J)
    intervals = elements = 0
    for kind, build in (("ek", ek_complex), ("modified", modified_complex)):
        if kind_of(kind).admits(J):
            poset = build_gamma(build(J))
            intervals += len(verify_el_all(poset.dual(), J))
            elements += len(poset)
    assert intervals > 0
    assert tracer.counts["shelling.el_intervals"] == intervals
    assert tracer.counts["posets.elements"] == elements


def test_full_battery_counts_the_intervals_it_checks():
    J = random_borel_ideal(random.Random(20260810))
    with Tracer() as tracer:
        stats = full_battery(J)
    intervals = stats["intervals_ek"] + stats["intervals_modified"]
    assert intervals > 0
    assert tracer.counts["verification.intervals"] == intervals
    assert tracer.counts["shelling.el_intervals"] == intervals
