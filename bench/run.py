"""Benchmark of the ekcells certifier: one workload per run, closed loop, one
thread.

    python3 bench/run.py --workload random-structural --seed 20260810 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``metrics.py``):

* ``random-structural``: ``verification.full_battery`` on the 200 random Borel
  ideals of acceptance criterion 6;
* ``cm-ball``: ``verification.cm_battery`` on the 50 random Cohen-Macaulay
  Borel ideals of acceptance criterion 7;
* ``verify-ladder``: ``ekcells verify`` (``cli.main``) over the named ideals
  and the power ideals (x1..xn)^d.

The run builds the inputs, then repeats passes over them until ``--seconds``
is used up, each input under a time cap, and checks every answer.  The
end-to-end times are scaled to a reference machine speed measured in the
same run (see ``Runner``); the notes print them as measured too.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced pass and then traced passes, and reports the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object; the lines before it print every metric with its unit, the failures
and the environment.  A full record goes to ``.bench_out/`` in the checkout,
and the traced run writes its spans there too.

Exit codes: 0 all answers correct, 1 some input failed or answered wrongly,
2 the checkout's ``src/ekcells`` cannot be imported or bad arguments.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("random-structural", "cm-ball", "verify-ladder")

INPUT_CAP_S = 30.0  # about 5x the slowest input at the parent commit
RUN_LIMIT_S = 150.0  # no input starts later than this into the run
SETUP_CHILDREN = 4  # extra set-ups in fresh interpreters, for the median
PROBE_PERIOD_S = 0.05  # CPU time between two reference slices in an input
PROBE_WINDOW_S = 0.5  # an input's speed comes from slices this close to it
REF_SLICE_S = 0.0015  # time of one reference slice at the reference speed

# A child interpreter times the same set-up: import ekcells, build inputs.
_CHILD_SETUP = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
from pathlib import Path
workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - t0)
"""


class InputTimeout(BaseException):
    """Raised by the alarm; a BaseException so no ``except Exception`` in the
    package swallows it."""


@dataclass
class Record:
    label: str
    seconds: float  # probe slices taken out
    status: str  # ok | wrong | error | timeout
    detail: str = ""
    facts: dict = field(default_factory=dict)
    spans: tuple = (0, 0)
    start: float = 0.0
    end: float = 0.0
    speed: float = 1.0  # REF_SLICE_S / slice time measured around the input


@dataclass
class Pass:
    wall: float  # sum of the input times, probe slices taken out
    records: list
    problems: list
    counts: Counter = field(default_factory=Counter)

    @property
    def scaled_wall(self) -> float:
        return sum(r.seconds * r.speed for r in self.records)


def reference_slice() -> int:
    """Fixed work that does not touch ekcells, made of what ekcells spends its
    time on: integer row elimination over lists, tuple keys, dict updates."""
    rows = [[(i * 7 + j * 13) % 5 - 2 for j in range(24)] for i in range(24)]
    for c in range(23):
        a = rows[c][c] or 1
        for r in range(c + 1, 24):
            b = rows[r][c]
            rows[r] = [(x * a - y * b) % 10007 for x, y in zip(rows[r], rows[c])]
    table = {}
    for i in range(1500):
        key = (i % 17, i % 23)
        table[key] = table.get(key, 0) + i
    return len(table)


def time_slice() -> float:
    enabled = gc.isenabled()
    gc.disable()  # a collection of the program's objects is not the slice's
    try:
        t0 = perf_counter()
        reference_slice()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_now(slices=20) -> float:
    """The host's speed relative to the reference speed, measured now."""
    return REF_SLICE_S / statistics.fmean(time_slice() for _ in range(slices))


class Runner:
    """Runs passes over a workload, each input under the alarm.

    Without ``probe`` (the traced run, whose spans the slices would land
    in), the speed is measured once at the start of each pass.  With
    ``probe`` set, a timer also interrupts every input each
    ``PROBE_PERIOD_S`` of CPU time to time one reference slice.  The host's
    speed drifts by up to 1.6x between stretches of seconds to minutes, and
    the slices see the same drift, so each input's time is scaled by
    ``REF_SLICE_S / mean time of the slices within PROBE_WINDOW_S of it`` to
    the reference speed.  The slices' own time is taken out of the input
    times.
    """

    def __init__(self, workload, deadline, wrong_answer, probe=True):
        self.workload = workload
        self.deadline = deadline
        self.wrong_answer = wrong_answer
        self.probe = probe
        self.armed = False
        self.slices = []  # (when, seconds) of each reference slice

    def _alarm(self, _signum, _frame):
        if self.armed:
            raise InputTimeout

    def _tick(self, _signum, _frame):
        self.slices.append((perf_counter(), time_slice()))

    def run_input(self, inp, tracer) -> Record:
        cap = min(INPUT_CAP_S, self.deadline - perf_counter())
        lo = tracer.mark() if tracer else 0
        if cap <= 0:
            return Record(inp.label, 0.0, "timeout", "run time limit reached", spans=(lo, lo))
        gc.collect()  # each input starts from the same heap state, untimed
        previous = signal.signal(signal.SIGALRM, self._alarm)
        previous_tick = signal.signal(signal.SIGVTALRM, self._tick)
        first_slice = len(self.slices)
        status, detail, facts = "ok", "", {}
        t0 = perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, cap)
            if self.probe:
                signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
            facts = inp.run() or {}
            self.armed = False
        except InputTimeout:
            status, detail = "timeout", f"over the {cap:.1f} s cap"
        except self.wrong_answer as exc:
            status, detail = "wrong", str(exc)
        except Exception as exc:  # any raise is a failed certification
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGVTALRM, previous_tick)
            signal.signal(signal.SIGALRM, previous)
        end = perf_counter()
        seconds = end - t0 - sum(d for _, d in self.slices[first_slice:])
        hi = tracer.mark() if tracer else 0
        return Record(inp.label, seconds, status, detail, facts, (lo, hi), t0, end)

    def run_pass(self, tracer=None) -> Pass:
        before = Counter(tracer.counts) if tracer else Counter()
        first_slice = len(self.slices)
        speed = 1.0 if self.probe else speed_now()  # outside every span
        records = [self.run_input(inp, tracer) for inp in self.workload.inputs]
        wall = sum(r.seconds for r in records)
        problems = [f"{r.label}: {r.status}: {r.detail}" for r in records if r.status != "ok"]
        if not problems:
            problems = self.workload.check_pass([r.facts for r in records])
        counts = Counter(tracer.counts) - before if tracer else Counter()
        if self.probe:
            self._set_speeds(records, first_slice)
        else:
            for r in records:
                r.speed = speed
        return Pass(wall, records, problems, counts)

    def _set_speeds(self, records, first_slice):
        for _ in range(5):  # so that a pass of short inputs has slices too
            self.slices.append((perf_counter(), time_slice()))
        pass_slices = self.slices[first_slice:]
        times = [t for t, _ in pass_slices]
        for r in records:
            lo = bisect.bisect_left(times, r.start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(times, r.end + PROBE_WINDOW_S)
            near = [d for _, d in pass_slices[lo:hi]] or [d for _, d in pass_slices]
            r.speed = REF_SLICE_S / statistics.fmean(near)

    def measure(self, seconds, tracer=None) -> list:
        """Passes until the next one would overrun ``seconds``; at least one."""
        passes = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            passes.append(self.run_pass(tracer))
            now = perf_counter()
            if now - start + (now - t0) > seconds or now >= self.deadline:
                return passes


def _import_workloads():
    """Import ``workloads`` (and with it ekcells) from this checkout only."""
    sys.path[:0] = [p for p in (str(BENCH), str(SRC)) if p not in sys.path]
    import workloads
    import ekcells

    origin = Path(ekcells.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ekcells was imported from {origin}, not from {SRC}")
    return workloads


def _child_setup(name, seed) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SETUP, str(BENCH), str(SRC), name, str(seed), str(OUT)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            rev = proc.stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "ekcells").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def tail(samples) -> tuple:
    """(percentile, value): the highest percentile with at least ten samples
    above it, or the maximum when that percentile is not above the median
    (twenty samples or fewer, such as the 12 ladder rungs)."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = 100 * (n - 10) // n if n > 10 else 0
    if pct <= 50:
        return 100, ordered[-1]
    return pct, ordered[n - 11]


def _per_input_ms(passes) -> dict:
    """Median time in ms of each input at the reference speed, over the
    passes where it succeeded."""
    times = {}
    for p in passes:
        for r in p.records:
            if r.status == "ok":
                times.setdefault(r.label, []).append(r.seconds * r.speed * 1000.0)
    return {label: statistics.median(ts) for label, ts in times.items()}


def _end_to_end(passes, setups) -> tuple:
    by_label = _per_input_ms(passes)
    per_input = list(by_label.values())
    pct, tail_ms = tail(per_input)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.scaled_wall for p in passes),
        "ideal_ms_p50": statistics.median(per_input),
        "ideal_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    speeds = [r.speed for p in passes for r in p.records]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, at reference speed",
        "wall_s": f"at reference speed; as measured {statistics.median(p.wall for p in passes)} s, "
                  f"speed factor {min(speeds):.3f}-{max(speeds):.3f}",
        "ideal_ms_tail": f"p{pct} of {len(per_input)} inputs",
        "per_input_ms": json.dumps(by_label),
    }
    return metrics, notes


def _per_layer(passes, untraced, tracer, table) -> tuple:
    per_pass = []
    for p in passes:
        lo, hi = p.records[0].spans[0], p.records[-1].spans[1]
        values = dict(p.counts)
        values.update(tracer.self_times(lo, hi))
        values["cli.json_bytes"] = sum(r.facts.get("json_bytes", 0) for r in p.records)
        for r in p.records:
            if "json_bytes" in r.facts:
                own = tracer.self_times(*r.spans).get("cli.verify_s", 0.0)
                values[f"cli.verify_s.{r.label}"] = own
        per_pass.append(values)
    metrics = {}
    for name, spec in table.items():
        middle = statistics.median if spec[0] == "s" else statistics.median_low
        metrics[name] = middle([v.get(name, 0) for v in per_pass])
    setup_spans = tracer.self_times(0, passes[0].records[0].spans[0])
    metrics["ideals.generate_s"] = setup_spans.get("ideals.generate_s", 0.0)
    metrics["trace.overhead_s"] = (
        statistics.median(p.scaled_wall for p in passes) - untraced.scaled_wall
    )
    notes = {}
    unsteady = sorted(
        name for name, spec in table.items()
        if spec[0] != "s" and len({v.get(name, 0) for v in per_pass}) > 1
    )
    if unsteady:
        notes["unsteady_counts"] = ", ".join(unsteady)
    return metrics, notes


def run(name, seed=None, seconds=30.0, trace=False, select=None,
        setup_children=SETUP_CHILDREN) -> dict:
    """Run one workload and return the full record.

    ``select`` keeps a subset of the inputs (the smoke test uses it);
    ``setup_children`` is how many extra set-ups run in fresh interpreters.
    """
    started = perf_counter()
    workloads = _import_workloads()
    import metrics as metric_table

    if seed is None:
        seed = workloads.DEFAULT_SEEDS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            workload = workloads.build(name, seed, OUT)
    else:
        workload = workloads.build(name, seed, OUT)
    setup_s = (perf_counter() - started) * speed_now()
    if select is not None:
        workload.inputs = [inp for inp in workload.inputs if select(inp)]
    # the traced run reports raw self times, so it takes no probe slices
    runner = Runner(workload, started + RUN_LIMIT_S, workloads.WrongAnswer, probe=not trace)

    # Keep the benchmark's own objects (inputs, imported modules) out of the
    # collector's way, so its pauses depend on the input being certified.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            untraced = runner.run_pass()
            with tracer:
                passes = runner.measure(max(seconds - untraced.wall, 0.0), tracer)
            metrics, notes = _per_layer(passes, untraced, tracer, metric_table.PER_LAYER)
            passes.insert(0, untraced)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
            table = metric_table.PER_LAYER
        else:
            passes = runner.measure(seconds)
            setups = [setup_s] + [
                speed_now() * _child_setup(name, seed) for _ in range(setup_children)
            ]
            metrics, notes = _end_to_end(passes, setups)
            table = metric_table.END_TO_END
    finally:
        gc.unfreeze()

    attempted = sum(len(p.records) for p in passes)
    failed = sum(1 for p in passes for r in p.records if r.status != "ok")
    problems = [q for p in passes for q in p.problems]
    return {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "seconds": seconds,
        "environment": environment(),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "passes": [{"wall": p.wall, "scaled_wall": p.scaled_wall} for p in passes],
        "metrics": {k: {"value": metrics[k], "unit": spec[0]} for k, spec in table.items()},
        "notes": notes,
        "run_s": perf_counter() - started,
    }


def _report(result) -> str:
    lines = [
        f"workload {result['workload']} seed {result['seed']} "
        f"trace {int(result['trace'])}: {len(result['passes'])} passes, "
        f"{result['attempted']} inputs attempted, {result['failed']} failed",
        "environment " + " ".join(f"{k}={v}" for k, v in result["environment"].items()),
        f"failed_share {result['failed_share']} share",
    ]
    for name, m in result["metrics"].items():
        note = result["notes"].get(name)
        lines.append(f"{name} {m['value']} {m['unit']}" + (f" ({note})" if note else ""))
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            lines.append(f"{name}: {note}")
    lines.extend(f"problem: {q}" for q in result["problems"][:20])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input order; default: the acceptance seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import ekcells from {SRC}: {exc}", file=sys.stderr)
        return 2
    tag = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(_report(result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
