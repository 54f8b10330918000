"""Smoke runs of every workload, traced and untraced, and the tracer's
binding management.

Run with: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYERS, Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seconds="1"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def test_benchmark_json_names_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == metric_names()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
    detail = json.loads(lines[-2])
    assert detail["workload"] == workload
    if trace == 0:
        assert detail["metrics"]["cmd_p90_ms"]["samples"] == result["attempted"]
        assert detail["environment"]["seed"] == 7


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    from opkernel import certify, cli, kernel, rkhs

    originals = (cli.gram, certify.gram, rkhs.gram, kernel.gram, kernel.OperatorKernel.eval_diffs)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.gram is certify.gram is rkhs.gram is kernel.gram
        assert cli.gram is not originals[0]
        assert certify.ShiftedPairKernel.eval_diffs.__wrapped__ is not None
        cli.main(["demo", "shifted-gaussian", "--w", "1", "--no-timestamp", "--output", str(tmp_path / "o.json")])
    finally:
        tracer.uninstall()
    assert (cli.gram, certify.gram, rkhs.gram, kernel.gram, kernel.OperatorKernel.eval_diffs) == originals
    summary = tracer.summary(1, 0)
    assert summary["cli.main.calls"] == 1
    assert summary["certify.eval_diffs.calls"] >= 1
    assert summary["kernel.gram.calls"] >= 1
    assert set(summary) | {n for n, _ in metric_names() if n.startswith("trace.")} == {
        n for n, _ in metric_names()
    }
    assert all(summary[f"{layer}.self_ms"] >= 0 for layer in LAYERS)
