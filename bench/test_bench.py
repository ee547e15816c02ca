"""Self-test of the benchmark in smoke mode.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 2
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected, workload
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
    assert "error_rate=0 ratio" in proc.stdout


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """One smoke night_pass op whose outputs passed the checks."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run
    tmp = tmp_path_factory.mktemp("bench")
    inputs = run.setup("night_pass", 5, tmp / "inputs", smoke=True)
    workload = run.Workload("night_pass", inputs)
    out = tmp / "op"
    outcome = workload.run(out)
    assert workload.check(out, outcome) == []
    return workload, out, json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("field, value, reason", [
    ("secret_bits", 10**9, "secret"),
    ("sifted_bits", -1, "secret"),
    ("qber_estimate", 0.6, "outside [0, 0.5]"),
    ("qber_estimate", 0.3, "sigma"),
    ("sync_offset_s", None, "sync"),
    ("coincidences_total", None, "lacks a field"),
])
def test_tampered_report_fails_the_check(simulated, field, value, reason):
    workload, out, report = simulated
    (out / "report.json").write_text(json.dumps({**report, field: value}))
    failures = workload.check(out, {"failures": [], "window_s": 0.0})
    assert any(reason in message for message in failures), failures


def test_report_differing_from_first_op_fails(simulated):
    workload, out, report = simulated
    (out / "report.json").write_text(json.dumps(report, indent=1))
    failures = workload.check(out, {"failures": [], "window_s": 0.0})
    assert failures == ["report.json differs from the first operation's"]
