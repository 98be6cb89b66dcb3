"""The verify JSON of every rung of the benchmark ladder (the named ideals and
the powers (x1..xn)^d) against the digest recorded in bench/ladder_digests.json."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def test_every_rung_matches_its_recorded_digest(tmp_path):
    digests = json.loads(workloads.LADDER_FILE.read_text(encoding="utf-8"))
    got = {}
    for name, argv in workloads.ladder_rungs(tmp_path):
        code, text = workloads.run_verify(argv)  # through cli.main
        got[name] = (code, workloads.verify_digest(text))
    assert got == {name: (0, digest) for name, digest in digests.items()}
