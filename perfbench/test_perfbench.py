"""Self-tests of the benchmark harness, on tiny runs of every workload.

Run from the root of the repository::

    python3 -m pytest perfbench -q

Each workload is run at ``--seconds 1`` (the smallest plan) once
untraced and once traced, each as its own process exactly as the
benchmark command runs; the gate test runs a tiny plan in-process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
TINY = 1.0

if HERE not in sys.path:
    sys.path.insert(0, HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

#: Layers a workload bypasses must read zero in its traced run.
BYPASSED = {
    "spice.": {"grid-service"},
    "service.": {"paper-long"},
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(TINY),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_names_the_workloads():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = run(workload, 0)["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        printed = metrics[metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_traced_run_prints_layers_and_a_valid_nested_stream(workload):
    from repro.obs import validate_stream

    metrics = run(workload, 1)["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    for prefix, bypassed_by in BYPASSED.items():
        if workload in bypassed_by:
            for name, printed in metrics.items():
                if name.startswith(prefix):
                    assert printed["value"] == 0, name
    path = os.path.join(ROOT, ".perfbench", "traces",
                        f"{workload}-seed{SEED}.jsonl")
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    spans = validate_stream(records)
    assert spans
    for span in spans.values():
        parent = spans.get(span.get("parent_id"))
        if parent is not None:
            assert parent["t_start"] <= span["t_start"]
            assert span["t_end"] <= parent["t_end"]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_gate_counts_one_failure_per_flipped_byte(workload, tmp_path):
    wl = workloads.workload(workload, str(tmp_path))
    plan = wl.plan(SEED, TINY)
    outputs, _ = wl.execute(plan, workloads.Clock(1), None)
    assert wl.check(plan, outputs).failed == 0
    target = wl.checked_arrays(plan, outputs)[0]
    raw = target.reshape(-1).view(np.uint8)
    raw[7] ^= 0x7F  # most significant byte of the first float64
    gate = wl.check(plan, outputs)
    assert gate.failed == 1, gate.failures
