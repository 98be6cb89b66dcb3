"""Inputs, runners and answer checks for the benchmark workloads.

Each workload is a fixed certification set.  ``--seed`` fixes the order in
which a pass visits it: the workload's default seed keeps the natural order,
any other seed shuffles it with ``random.Random(seed)``.  The sets are not
redrawn per seed because their cost is carried by a few heavy inputs (one
cm-ball ideal is about 60% of its pass), so fresh draws would move the wall
time by more than any bound a regression check could use.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ekcells import cli, ideals, verification

DEFAULT_SEEDS = {
    "random-structural": 20260810,
    "cm-ball": 20260811,
    "verify-ladder": 20260810,
}

STRUCTURAL_COUNT = 200
CM_COUNT = 50
# Dual intervals certified over the 200 acceptance draws, both kinds.
STRUCTURAL_INTERVALS = 12732

LADDER_FILE = Path(__file__).resolve().parent / "ladder_digests.json"
NAMED = ("deg2", "tri-tri", "tri-sq", "deg4", "intro")
# (variables, degree, --check) for the power ideals (x1..xn)^d.  Dense ball
# homology on the "cw" rungs takes 29 s to over 120 s, so they skip "ball".
POWERS = (
    (3, 2, "all"), (3, 3, "all"), (3, 4, "all"), (4, 2, "all"),
    (4, 3, "cw"), (4, 4, "cw"), (5, 2, "cw"),
)
EXPECTED_VERDICTS = {
    "tri-tri": {("kinds", "modified", "ball", "verdict"): "refuted"},
    "tri-sq": {
        ("kinds", "modified", "ball", "verdict"): "ball-certified",
        ("kinds", "ek", "ball", "verdict"): "refuted",
    },
    "deg4": {("posets_isomorphic",): False},
    "deg2": {("posets_isomorphic",): True},
}


class WrongAnswer(Exception):
    """The program returned, but not the answer recorded for this input."""


@dataclass
class Input:
    label: str
    run: Callable[[], dict]  # returns facts the pass-level check consumes


@dataclass
class Workload:
    inputs: list
    check_pass: Callable[[list], list]  # facts of a pass -> list of problems


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Make the inputs of one workload, in the order ``seed`` gives."""
    if name == "random-structural":
        workload = _structural()
    elif name == "cm-ball":
        workload = _cm_ball()
    elif name == "verify-ladder":
        workload = _ladder(out_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if seed != DEFAULT_SEEDS[name]:
        random.Random(seed).shuffle(workload.inputs)
    return workload


# -- random-structural: acceptance criterion 6 --------------------------------


def _structural() -> Workload:
    rng = random.Random(DEFAULT_SEEDS["random-structural"])
    inputs = []
    for k in range(STRUCTURAL_COUNT):
        ideal = ideals.random_borel_ideal(rng)
        inputs.append(Input(f"#{k}", lambda ideal=ideal: _full_battery(ideal)))
    return Workload(inputs, _check_intervals)


def _full_battery(ideal) -> dict:
    stats = verification.full_battery(ideal)
    return {"intervals": stats["intervals_ek"] + stats["intervals_modified"]}


def _check_intervals(facts) -> list:
    if len(facts) != STRUCTURAL_COUNT:
        return []  # a partial set has no recorded total
    total = sum(f["intervals"] for f in facts)
    if total != STRUCTURAL_INTERVALS:
        return [f"{total} dual intervals certified, expected {STRUCTURAL_INTERVALS}"]
    return []


# -- cm-ball: acceptance criterion 7 -------------------------------------------


def _cm_ball() -> Workload:
    rng = random.Random(DEFAULT_SEEDS["cm-ball"])
    inputs = []
    for k in range(CM_COUNT):
        ideal = ideals.random_borel_ideal(rng, cm=True)
        # cm_battery raises unless both balls are certified
        inputs.append(Input(f"#{k}", lambda ideal=ideal: verification.cm_battery(ideal)))
    return Workload(inputs, lambda facts: [])


# -- verify-ladder: the verify command over named ideals and powers ------------


def power_ideal_text(n: int, d: int) -> str:
    """The ideal file of (x1..xn)^d, one exponent vector per generator."""
    def vectors(slots, left):
        if slots == 1:
            yield (left,)
            return
        for e in range(left, -1, -1):
            for rest in vectors(slots - 1, left - e):
                yield (e,) + rest

    gens = list(vectors(n, d))
    lines = [f"{n} {len(gens)}"] + [" ".join(map(str, v)) for v in gens]
    return "\n".join(lines) + "\n"


def ladder_rungs(out_dir: Path) -> list:
    """(rung name, verify argv) in ladder order; writes the power files."""
    rungs = [
        (name, ["verify", "--named", name, "--check", "all", "--compare-posets"])
        for name in NAMED
    ]
    ideal_dir = out_dir / "ideals"
    ideal_dir.mkdir(parents=True, exist_ok=True)
    for n, d, check in POWERS:
        path = ideal_dir / f"pow{n}-{d}.txt"
        path.write_text(power_ideal_text(n, d), encoding="utf-8")
        rungs.append((f"pow{n}-{d}", ["verify", "--ideal", str(path), "--check", check]))
    return rungs


def verify_digest(text: str) -> str:
    """SHA-256 of a verify JSON with any ``stats`` key removed."""
    bundle = json.loads(text)
    bundle.pop("stats", None)
    for checks in bundle.get("kinds", {}).values():
        checks.pop("stats", None)
    canonical = json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _ladder(out_dir: Path) -> Workload:
    digests = json.loads(LADDER_FILE.read_text(encoding="utf-8"))
    inputs = [
        Input(name, lambda name=name, argv=argv: _verify(name, argv, digests[name]))
        for name, argv in ladder_rungs(out_dir)
    ]
    return Workload(inputs, lambda facts: [])


def run_verify(argv) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _verify(name, argv, digest) -> dict:
    code, text = run_verify(argv)
    if code != 0:
        raise WrongAnswer(f"exit code {code}")
    bundle = json.loads(text)
    for path, want in EXPECTED_VERDICTS.get(name, {}).items():
        got = bundle
        for key in path:
            got = got[key]
        if got != want:
            raise WrongAnswer(f"{'.'.join(path)} is {got!r}, expected {want!r}")
    if verify_digest(text) != digest:
        raise WrongAnswer("verify JSON differs from the recorded digest")
    return {"json_bytes": len(text.encode("utf-8"))}
