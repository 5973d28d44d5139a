"""Smoke tests for the benchmark: every workload at a tiny size, untraced and traced."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """(printed metric lines by name, final JSON result) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if not line.startswith("#"):
            name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(last)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_and_outputs_pass(workload):
    printed, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    throughput = "cells_per_s" if workload == "long_score" else "frames_per_s"
    for name in (*spec, "setup_wall_s", "bare_s", "job_s", "ref_s", "error_rate", throughput):
        assert name in printed and printed[name][1], name
    assert printed["error_rate"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_the_job(workload):
    printed, result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(printed[name][1] == unit for name, unit in spec.items())
    assert printed["error_rate"][0] == 0.0
    layers = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    assert layers == pytest.approx(metrics["trace.job_s"], rel=1e-9)
    assert metrics["cli.other_s"] > 0
    growth = ("laban.validate_growth", "laban.states_at_growth")
    if workload == "long_score":
        assert all(metrics[name] > 0 for name in growth)
    else:
        assert all(metrics[name] == 0 for name in growth)


@pytest.mark.parametrize("rewrites", [True, False])
def test_a_job_must_write_its_outputs_again(tmp_path, monkeypatch, rewrites):
    monkeypatch.syspath_prepend(str(RUN.parent))
    import run

    out = tmp_path / "out.txt"
    calls = []

    def fake_job(jobs):
        if rewrites or not calls:
            out.write_text("output")
        calls.append(jobs)
        return True

    monkeypatch.setattr(run, "run_job", fake_job)
    loop = run.Loop({"jobs": [], "outputs": [str(out)], "clear": [str(out)], "decoded": [],
                     "dictionary": None, "robot": "lab_9dof", "dir": str(tmp_path)})
    loop.job()
    assert (loop.attempted, loop.failed) == (1, 0 if rewrites else 1)
