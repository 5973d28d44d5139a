"""Seeded inputs, job command lines and output checks for the benchmark workloads.

Run as a script to generate one workload's inputs into an empty directory;
it writes the inputs and ``manifest.json``, which names the jobs' command
lines, their output files and the input sizes:

    PYTHONPATH=src python3 bench/workloads.py --workload long_clip --seed 1 --out DIR

Inputs depend only on the workload, the seed and the scale. They are made
through the labanmotion command line (``synth``, ``encode``) or written
directly (scores), so the program under test only ever sees files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import random
import statistics

from labanmotion import cli, laban, robot, skeleton, trajectory
from labanmotion.errors import LabanMotionError

WORKLOADS = ("long_clip", "long_score", "dict_build")

RATE_HZ = 30.0  # skeleton sample rate of every synthetic clip
TRAJ_RATE_HZ = 100.0  # trajectory sample rate of every decode
DWELL_S = 0.6

# The 26 limb pose names of the synthetic generator: 8 azimuths x 3 levels
# plus straight up and down.
_AZIMUTHS = ("forward", "left_forward", "left", "left_backward", "backward",
             "right_backward", "right", "right_forward")
POSE_NAMES = ("place_high", "place_low") + tuple(
    f"{a}_{lvl}" for a in _AZIMUTHS for lvl in ("high", "middle", "low")
)
# dict_build draws from a small vocabulary so held-out transitions were
# often seen in training; with all 26 poses almost every lookup would miss.
DICT_VOCAB = ("forward_middle", "forward_high", "left_forward_middle",
              "right_forward_middle", "place_low", "place_high")
PARTS = ("right_arm", "left_arm", "head")

# The 26 limb symbols of a score column, as (direction, level) tokens.
SYMBOLS = tuple(
    (str(s.direction.value), str(s.level.value)) for s in laban.VALID_LIMB_SYMBOLS
)
SCORE_COLUMNS = ("LeftArm", "RightArm", "Head")

# Candidate clips drawn per generated clip; the one whose frame count is
# closest to a seed-independent target is kept, so job sizes do not vary
# with the seed while the poses do.
_CANDIDATES = 100


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _draw_poses(rng: random.Random, n: int, vocab) -> list[str]:
    poses: list[str] = []
    while len(poses) < n:
        p = rng.choice(vocab)
        if not poses or p != poses[-1]:
            poses.append(p)
    return poses


def _frames_of(part: str, poses: list[str]) -> int:
    desc = {"pattern": "reach_sequence", "part": part, "poses": [[p, DWELL_S] for p in poses]}
    return int(round(skeleton.descriptor_timeline(desc)[-1][2] * RATE_HZ))


@functools.lru_cache(maxsize=None)
def _target_frames(part: str, reaches: int, vocab: tuple[str, ...]) -> float:
    ref = random.Random(f"target:{part}:{reaches}:{len(vocab)}")
    return statistics.median(_frames_of(part, _draw_poses(ref, reaches, vocab))
                             for _ in range(_CANDIDATES))


def _sized_poses(rng: random.Random, part: str, reaches: int, vocab: tuple[str, ...]) -> list[str]:
    """Seeded pose list whose clip length is as close as possible to a
    target that depends on the size and vocabulary but not on the seed."""
    target = _target_frames(part, reaches, vocab)
    best, best_gap = None, math.inf
    for _ in range(_CANDIDATES):
        poses = _draw_poses(rng, reaches, vocab)
        gap = abs(_frames_of(part, poses) - target)
        if gap < best_gap:
            best, best_gap = poses, gap
    return best


def _synth_clip(path: str, part: str, poses: list[str]) -> int:
    argv = ["synth", "reach_sequence", "--part", part, "--rate", str(RATE_HZ), "-o", path]
    for p in poses:
        argv += ["--pose", f"{p}:{DWELL_S}"]
    if cli.main(argv) != 0:
        raise RuntimeError(f"synth failed for {path}")
    return _frames_of(part, poses)


def _score_text(rng: random.Random, cells_per_column: int) -> str:
    """A score whose columns all span 0.75 s x cells, cut into durations of
    0.3-1.2 s on a 10 ms grid drawn per column, so boundaries rarely line
    up across columns but all fall on the 100 Hz trajectory grid."""
    lo, hi = 30, 120  # ticks of 10 ms
    total = cells_per_column * (lo + hi) // 2
    columns = []
    for name in SCORE_COLUMNS:
        ticks = [rng.randint(lo, hi) for _ in range(cells_per_column)]
        excess = sum(ticks) - total
        while excess:
            i = rng.randrange(cells_per_column)
            step = -1 if excess > 0 else 1
            if lo <= ticks[i] + step <= hi:
                ticks[i] += step
                excess += step
        cells, start, prev = [], 0, None
        for t in ticks:
            sym = rng.choice([s for s in SYMBOLS if s != prev])
            cells.append({"dir": sym[0], "level": sym[1],
                          "start": start / 100, "duration": t / 100})
            start, prev = start + t, sym
        columns.append({"name": name, "cells": cells})
    return json.dumps({"columns": columns, "meta": {}, "total_duration": total / 100},
                      indent=1, sort_keys=True) + "\n"


def _write_score(path: str, rng: random.Random, cells_per_column: int) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_score_text(rng, cells_per_column))
    return cells_per_column * len(SCORE_COLUMNS)


def _decode_job(score: str, robot_name: str, out: str, interp: str, mdict: str | None = None) -> list[str]:
    argv = ["decode", score, "--robot", robot_name, "--interp", interp,
            "--rate", str(TRAJ_RATE_HZ), "-o", out]
    return argv + (["--dict", mdict] if mdict else [])


def score_cells(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return sum(len(c["cells"]) for c in json.load(fh)["columns"])


def generate(workload: str, seed: int, scale: float, out: str) -> dict:
    """Write one workload's inputs into ``out`` and return its manifest.

    ``long_score`` also gets the complexity probe's input: a second score
    with a quarter of the cells.
    """
    rng = random.Random(f"{workload}:{seed}")

    def path(name: str) -> str:
        return os.path.join(out, name)

    frames = 0
    probe = None
    if workload == "long_clip":
        robot_name = "lab_9dof"
        poses = _sized_poses(rng, "right_arm", max(3, round(60 * scale)), POSE_NAMES)
        frames = _synth_clip(path("clip.json"), "right_arm", poses)
        outdir = path("out")
        jobs = [["pipeline", path("clip.json"), "--robot", robot_name, "--interp", "linear",
                 "--traj-rate", str(TRAJ_RATE_HZ), "-o", outdir]]
        outputs = [os.path.join(outdir, f) for f in
                   ("keyframes.json", "score.json", "trajectory.csv", "report.json")]
        decoded = [(os.path.join(outdir, "score.json"), os.path.join(outdir, "trajectory.csv"))]
        clear = [outdir]
    elif workload == "long_score":
        robot_name = "frontal_7dof"
        cells = max(4, round(700 * scale))
        full = _write_score(path("score.json"), rng, cells)
        quarter = _write_score(path("quarter.json"), rng, max(2, cells // 4))
        jobs = [_decode_job(path("score.json"), robot_name, path("trajectory.csv"), "linear")]
        outputs = clear = [path("trajectory.csv")]
        decoded = [(path("score.json"), path("trajectory.csv"))]
        probe = {
            "cells": {"full": full, "quarter": quarter},
            "jobs": [_decode_job(path("quarter.json"), robot_name, path("quarter.csv"), "linear")],
            "outputs": [path("quarter.csv")],
            "clear": [path("quarter.csv")],
            "decoded": [(path("quarter.json"), path("quarter.csv"))],
        }
    elif workload == "dict_build":
        robot_name = "frontal_7dof"
        clips = []
        for i in range(max(3, round(12 * scale))):
            part = PARTS[i % len(PARTS)]
            clip = path(f"train_{i:02d}.json")
            frames += _synth_clip(clip, part, _sized_poses(rng, part, 8, DICT_VOCAB))
            clips.append(clip)
        mdict = path("dict.json")
        jobs = [["dict", "build", *clips, "--robot", robot_name, "-o", mdict]]
        outputs = [mdict]
        decoded = []
        for i in range(max(1, round(4 * scale))):
            part = PARTS[i % len(PARTS)]
            clip, score, csv = path(f"heldout_{i}.json"), path(f"heldout_{i}.score.json"), path(f"traj_{i}.csv")
            _synth_clip(clip, part, _sized_poses(rng, part, max(4, round(40 * scale)), DICT_VOCAB))
            if cli.main(["encode", clip, "-o", score]) != 0:
                raise RuntimeError(f"encode failed for {clip}")
            jobs.append(_decode_job(score, robot_name, csv, "cubic", mdict))
            outputs.append(csv)
            decoded.append((score, csv))
        clear = outputs
    else:
        raise ValueError(f"unknown workload {workload!r}")

    manifest = {
        "workload": workload,
        "dir": out,
        "robot": robot_name,
        "jobs": jobs,
        "outputs": outputs,
        "clear": clear,  # deleted before every job, so each job writes its outputs anew
        "decoded": decoded,  # (score, trajectory CSV) of every decode
        "dictionary": path("dict.json") if workload == "dict_build" else None,
        "frames": frames,
        # long_score only: the same decode at a quarter of the cells
        "probe": probe,
    }
    with open(path("manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digest(paths: list[str]) -> str:
    """SHA-256 over the named files' bytes, in order."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _grid_length(t0: float, t1: float, rate: float) -> int:
    # uniform grid from the first to the last key-pose time; the microsecond
    # slack keeps the last key time on the grid despite 6-decimal rounding
    return int(math.floor((t1 - t0) * rate + 1e-6 * rate + 1e-9)) + 1


def _check_trajectory(score_path: str, csv_path: str, robot_desc) -> list[str]:
    score = laban.load_score(score_path)
    keyposes = robot.decode_score(score, robot_desc)
    with open(csv_path, "r", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    joints = header.split(",")[1:]
    problems = []
    expected = _grid_length(keyposes[0].t, keyposes[-1].t, TRAJ_RATE_HZ)
    if len(rows) != expected:
        problems.append(f"{csv_path}: {len(rows)} rows, sample grid has {expected}")
    by_time = {}
    for row in rows:
        t, _, rest = row.partition(",")
        by_time[t] = rest
    checked = 0
    for pose in keyposes:
        rest = by_time.get(f"{pose.t:.6f}")
        if rest is None:
            continue
        checked += 1
        values = [float(x) for x in rest.split(",")]
        worst = max(abs(v - pose.angles[j]) for j, v in zip(joints, values))
        if worst > 1e-6:
            problems.append(f"{csv_path}: t={pose.t:.6f} differs from its key pose by {worst:g}")
    if checked == 0:
        problems.append(f"{csv_path}: no row falls on a key-pose time")
    return problems


def check_outputs(manifest: dict) -> list[str]:
    """Problems with one job's outputs; empty means they pass every check."""
    problems = []
    robot_desc = robot.load_robot(manifest["robot"])
    for score_path, csv_path in manifest["decoded"]:
        try:
            problems += _check_trajectory(score_path, csv_path, robot_desc)
        except (OSError, ValueError, LabanMotionError) as exc:
            problems.append(f"{score_path}: {type(exc).__name__}: {exc}")
    if manifest["dictionary"]:
        try:
            if not trajectory.load_dictionary(manifest["dictionary"]).entries:
                problems.append("dictionary reloads with no entries")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"dictionary does not reload: {type(exc).__name__}: {exc}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.scale, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
