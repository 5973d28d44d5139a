#!/usr/bin/env python3
"""labanmotion benchmark: seeded workloads run through ``cli.main``.

    python3 bench/run.py --workload long_clip --seed 1 --seconds 20 --trace 0

Inputs are generated from the seed in a child process, so the program only
sees files. One client then runs the workload's job in a closed loop (each
job starts when the previous one ends) for ``--seconds``, in this process,
with numpy/BLAS pinned to one thread. The first job is untimed; its outputs
are checked. Every later job's outputs are deleted before it starts, and it
must write the first job's bytes again.

``--trace 0`` reports the end-to-end metrics: set-up time and job time,
each divided by a reference timed around it (see README.md), and peak
resident memory. ``--trace 1`` alternates untraced and traced jobs and
reports per-layer self times and counts from :mod:`tracing`, the tracing
overhead, and (on long_score) the complexity probe. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record, with the environment and output digests, is written to
``bench/work/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

if not (SRC / "labanmotion" / "__init__.py").is_file():
    sys.exit(f"error: no labanmotion package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from labanmotion import cli  # noqa: E402

with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
# the metrics of the result line: end-to-end untraced, per-layer traced
METRICS = {0: [m["name"] for m in _SPEC["end_to_end"]], 1: [m["name"] for m in _SPEC["per_layer"]]}

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
PROBE_QUARTER_REPEATS = 3
SETUP_CODE = "import labanmotion.cli; from labanmotion import robot; robot.load_robot({robot!r})"
# what every Python command line that uses numpy pays, without the package
BARE_CODE = "import argparse, json, numpy"
# wall time of BARE_CODE's interpreter on the baseline host (README.md);
# setup_s is expressed at that host speed
BARE_SECONDS = 0.18


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _interpreter_seconds(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code`` and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                   capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


def setup_times(robot_name: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import labanmotion.cli and load
    the robot, and of bare ones (BARE_CODE) run before and after each.
    One untimed run of each first lets bytecode be compiled and cached."""
    code = SETUP_CODE.format(robot=robot_name)
    _interpreter_seconds(code)
    bare = [_interpreter_seconds(BARE_CODE)]
    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(_interpreter_seconds(code))
        bare.append(_interpreter_seconds(BARE_CODE))
    return setup, bare


def generate(workload: str, seed: int, scale: float, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed),
         "--scale", repr(scale), "--out", str(work)],
        env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
    )
    with open(work / "manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_job(jobs: list[list[str]]) -> bool:
    """Run one job's CLI invocations in order; True when all exit 0."""
    for argv in jobs:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        if code != 0:
            return False
    return True


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


class Loop:
    """Closed-loop job runner that checks every job against the first."""

    def __init__(self, manifest: dict):
        self.jobs = manifest["jobs"]
        self.outputs = manifest["outputs"]
        self.clear = manifest["clear"]
        ok = run_job(self.jobs)
        self.problems = workloads.check_outputs(manifest) if ok else ["reference job exited non-zero"]
        self.digests = {os.path.relpath(p, manifest["dir"]): workloads.digest([p])
                        for p in self.outputs} if ok else {}
        self.expected = workloads.digest(self.outputs) if ok else None
        self.cells = sum(workloads.score_cells(s) for s, _ in manifest["decoded"]) if ok else 0
        self.attempted = 0
        self.failed = 0

    def job(self, span=contextlib.nullcontext()) -> float:
        """Run one timed job inside ``span``; returns its wall time in seconds.
        Its outputs are deleted first; it fails unless it exits 0 and writes
        the checked first job's bytes again."""
        for path in self.clear:
            _remove(path)
        gc.collect()
        with span:
            t0 = time.perf_counter()
            ok = run_job(self.jobs)
            elapsed = time.perf_counter() - t0
        self.attempted += 1
        try:
            same = ok and workloads.digest(self.outputs) == self.expected
        except OSError:  # an output was not written
            same = False
        if not (same and not self.problems):
            self.failed += 1
        return elapsed


def end_to_end(manifest: dict, seconds: float) -> tuple[Loop, dict, dict]:
    setup, bare = setup_times(manifest["robot"])
    loop = Loop(manifest)
    times, refs = [], [reference.seconds()]
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(loop.job())
        refs.append(reference.seconds())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_s = statistics.median(times)
    setup_rel = statistics.median(t / ((a + b) / 2) for t, a, b in zip(setup, bare, bare[1:]))
    metrics = {
        "setup_s": (setup_rel * BARE_SECONDS, "s"),
        "setup_wall_s": (statistics.median(setup), "s"),
        "bare_s": (statistics.median(bare), "s"),
        "job_rel": (statistics.median(t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])), "ref"),
        "peak_rss_mb": (peak_mb, "MB"),
        "job_s": (job_s, "s"),
        "ref_s": (statistics.median(refs), "s"),
        "cells_per_s": (loop.cells / job_s, "1/s"),
    }
    if manifest["frames"]:
        metrics["frames_per_s"] = (manifest["frames"] / job_s, "1/s")
    return loop, metrics, {"job_times_s": times, "reference_times_s": refs,
                           "setup_times_s": setup, "bare_times_s": bare}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _traced_job(loop: Loop, tracer: tracing.Tracer, job_id) -> float:
    tracer.install()
    try:
        return loop.job(tracer.job(job_id))
    finally:
        tracer.uninstall()


def traced(manifest: dict, seconds: float, work: Path) -> tuple[Loop, dict, dict]:
    """Pairs of one untraced and one traced job, in the order ABBA so that
    drift that is linear over two pairs cancels from the paired differences.
    The tracer's wrappers are installed for the traced job only."""
    tracer = tracing.Tracer()
    loop = Loop(manifest)
    untraced, traced_times, job_ids = [], [], []
    start = time.perf_counter()
    while not job_ids or time.perf_counter() - start < seconds:
        job_ids.append(len(job_ids))
        if job_ids[-1] % 2:
            traced_times.append(_traced_job(loop, tracer, job_ids[-1]))
            untraced.append(loop.job())
        else:
            untraced.append(loop.job())
            traced_times.append(_traced_job(loop, tracer, job_ids[-1]))
    # complexity probe (long_score): the same decode at a quarter of the
    # cells; the full size is the workload's own traced jobs
    probe = manifest["probe"]
    probe_ids = []
    if probe:
        quarter = Loop({**manifest, **probe})
        for k in range(PROBE_QUARTER_REPEATS):
            probe_ids.append(f"quarter:{k}")
            _traced_job(quarter, tracer, probe_ids[-1])
        loop.problems += quarter.problems
        loop.attempted += quarter.attempted
        loop.failed += quarter.failed
    tracer.write(str(work.parent / f"{work.name}.spans.jsonl"))

    selfs = tracer.self_times()
    n = len(job_ids)
    counts = sum((tracer.counts[j] for j in job_ids), start=collections.Counter())

    def mean_self(key: str, ids=job_ids) -> float:
        return sum(selfs[j][key] for j in ids) / len(ids)

    def per_job(key: str) -> float:
        return counts[key] / n

    def growth(layer: str) -> float:
        """0 on the workloads without the probe."""
        if not probe:
            return 0.0
        full = statistics.median(selfs[j][layer] for j in job_ids)
        quarter = statistics.median(selfs[j][layer] for j in probe_ids)
        cells = probe["cells"]
        return math.log(full / quarter) / math.log(cells["full"] / cells["quarter"])

    m = {f"{layer}_s": (mean_self(layer), "s") for layer in tracing.LAYERS}
    m.update({
        "skeleton.frames": (per_job("skeleton.frames"), "count"),
        "keyframe.peaks": (per_job("keyframe.peaks"), "count"),
        "keyframe.merged": (per_job("keyframe.merged"), "count"),
        "keyframe.merge_ratio": (_ratio(counts["keyframe.merged"], counts["keyframe.peaks"]), "ratio"),
        "encoder.cells": (per_job("encoder.cells"), "count"),
        "encoder.coalesce_ratio": (_ratio(counts["encoder.cells"], counts["encoder.slots"]), "ratio"),
        "laban.validate_calls": (per_job("laban.validate_calls"), "count"),
        "laban.states_at_calls": (per_job("laban.states_at_calls"), "count"),
        "robot.poses": (per_job("robot.poses"), "count"),
        "robot.clamp_ratio": (_ratio(counts["robot.clamped"], counts["robot.driven"]), "ratio"),
        "robot.projected_frames": (per_job("robot.projected_frames"), "count"),
        "trajectory.samples": (per_job("trajectory.samples"), "count"),
        "trajectory.dict_paths": (per_job("trajectory.dict_paths"), "count"),
        "trajectory.dict_new_ratio": (
            _ratio(counts["trajectory.dict_paths"], counts["trajectory.dict_updates"]), "ratio"),
        "trajectory.dict_lookups": (per_job("trajectory.dict_lookups"), "count"),
        "trajectory.dict_hit_ratio": (
            _ratio(counts["trajectory.dict_hits"], counts["trajectory.dict_lookups"]), "ratio"),
        "cli.other_s": (mean_self(tracing.JOB), "s"),
        "trace.job_s": (mean_self("job"), "s"),
        "trace.overhead_s": (statistics.median(t - u for t, u in zip(traced_times, untraced)), "s"),
        "laban.validate_growth": (growth("laban.validate"), "exponent"),
        "laban.states_at_growth": (growth("laban.states_at"), "exponent"),
    })
    return loop, m, {"traced_jobs": n, "traced_job_times_s": traced_times,
                     "untraced_job_times_s": untraced, "probe_cells": probe and probe["cells"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="labanmotion benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the standard workload (tests use less)")
    args = parser.parse_args(argv)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / name
    manifest = generate(args.workload, args.seed, args.scale, work)
    if args.trace:
        loop, metrics, detail = traced(manifest, args.seconds, work)
    else:
        loop, metrics, detail = end_to_end(manifest, args.seconds)
    shutil.rmtree(work, ignore_errors=True)
    # printed and recorded, but not in the result line, whose metrics are
    # BENCHMARK.json's gated ones and are never 0 (error_rate is, when all is well)
    extra = {"jobs": (loop.attempted, "count"), "error_rate": (loop.failed / loop.attempted, "ratio")}
    reported = {k: metrics[k] for k in METRICS[args.trace]}

    env = environment(args.seed)
    record = {
        "workload": args.workload, "scale": args.scale, "trace": args.trace,
        "environment": env,
        "frames": manifest["frames"], "cells": loop.cells,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "attempted": loop.attempted, "failed": loop.failed, "problems": loop.problems,
        "output_digests": loop.digests, **detail,
    }
    with open(WORK / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} scale={args.scale:g} trace={args.trace}")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    for path, dig in loop.digests.items():
        print(f"# digest {path}: {dig}")
    for problem in loop.problems:
        print(f"# FAILED CHECK: {problem}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{key:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0 and not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
