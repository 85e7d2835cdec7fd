"""Smoke tests of the end-to-end benchmark at a 0.05 scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402
from repro.serving.ladder import TIER_FULL, DegradationLadder  # noqa: E402

SCALE = 0.05
VIRTUAL = [n for n, m in metrics.E2E.items() if m.clock != metrics.HOST]


def _measure(name="fleet-steady", seed=29, traced=False):
    return workloads.measure(
        name, seed=seed, reps=1, traced=traced, scale=SCALE
    )


def test_benchmark_json_matches_the_tables():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == list(metrics.DRIVER_E2E)
    for name, entry in e2e.items():
        assert entry["unit"] == metrics.E2E[name].unit
        assert entry["better"] == metrics.E2E[name].better
        assert entry["bound"] == metrics.E2E[name].rel
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    per_layer = {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    }
    assert per_layer == metrics.per_layer()


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_each_workload_emits_its_metrics(name, tmp_path):
    out = tmp_path / "report.json"
    trace_out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--scale", str(SCALE), "--reps", "1", "--trace", "1",
         "--out", str(out), "--trace-out", str(trace_out)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(metrics.per_layer())

    record = json.loads(out.read_text())["workloads"][name]
    assert record["correct"] and record["failed"] == 0
    assert list(record["metrics"]) == list(metrics.e2e_for(name))
    untraced = run.driver_line([record], traced=False)
    assert set(untraced["metrics"]) == set(metrics.DRIVER_E2E)

    # Self times of all layers sum to the traced repetition's wall time.
    traced = record["traced"]
    self_sum = sum(row["self_s"] for row in record["layers"].values())
    wall = traced["setup_s"] + traced["run_s"]
    assert abs(self_sum / wall - 1.0) <= 0.05

    chrome = json.loads(trace_out.read_text())
    assert validate_chrome_trace(chrome) == 2 * traced["spans"]


def test_virtual_metrics_repeat_per_seed():
    def virtual(record):
        return {n: m["value"] for n, m in record["metrics"].items()
                if n in VIRTUAL}

    first = virtual(_measure(seed=29))
    assert virtual(_measure(seed=29)) == first
    assert virtual(_measure(seed=3)) != first


def test_shims_are_removed_after_the_traced_repetition():
    originals = {
        (id(owner), name): vars(owner)[name]
        for _, owner, name in layers.targets()
    }
    traced = _measure("fleet-chaos", traced=True)
    assert traced["checks"]["digest_mismatches"] == 0
    for _, owner, name in layers.targets():
        assert vars(owner)[name] is originals[(id(owner), name)]
    assert obs.request_tracer() is obs.NULL_REQUEST_TRACER
    untraced = _measure("fleet-chaos")
    assert untraced["checks"]["digest"] == traced["checks"]["digest"]


def test_planted_mismatch_raises_error_rate(monkeypatch):
    execute = DegradationLadder.execute

    def off_by_one(self, tier, *args, **kwargs):
        report, degraded, bound = execute(self, tier, *args, **kwargs)
        if tier == TIER_FULL:
            report.cycles += 1
        return report, degraded, bound

    monkeypatch.setattr(DegradationLadder, "execute", off_by_one)
    record = _measure()
    assert record["checks"]["bit_identity_mismatches"] > 0
    assert record["metrics"]["error_rate"]["value"] > 0
    assert not record["correct"]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0] * 10, [8.0] * 10, "lower", "gain"),
        ([10.0] * 10, [10.5] * 10, "lower", "within bound"),
        ([10.0] * 10, [12.0] * 10, "lower", "regression"),
        ([8.0, 12.0] * 5, [9.0, 13.0] * 5, "lower", "unresolved"),
        ([1.0] * 10, [1.0] * 10, "higher", "within bound"),
        ([10.0] * 9, [8.0] * 9, "lower", "within bound"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1, 0.0)[0] == expected
