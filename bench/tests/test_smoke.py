"""Smoke test of the benchmark: a few inputs per workload, in seconds.

Runs every workload untraced and traced on a small subset of its inputs and
checks that each named metric is reported with its unit, that the answers
check out, and that tracing leaves the package as it found it.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402

SUBSETS = {
    "random-structural": ("#0", "#1", "#2"),
    "cm-ball": ("#0", "#1", "#2"),
    "verify-ladder": ("deg2",),
}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    keep = SUBSETS[workload]
    result = run.run(workload, seconds=0.01, trace=trace,
                     select=lambda inp: inp.label in keep, setup_children=0)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= len(keep)
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {name: spec[0] for name, spec in table.items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["environment"]["src_lines"] > 0


def test_tracing_restores_the_package():
    from ekcells import cli, ek, posets, verification

    run.run("verify-ladder", seconds=0.01, trace=True,
            select=lambda inp: inp.label == "deg2", setup_children=0)
    assert verification.ek_complex is ek.ek_complex
    assert cli.build_gamma is posets.build_gamma
    assert "wrapper" not in posets.FinitePoset.chains_between.__code__.co_name


def test_benchmark_json_lists_the_metric_table():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == {
        name: spec[:3] for name, spec in metrics.END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in metrics.PER_LAYER.items()
    }
