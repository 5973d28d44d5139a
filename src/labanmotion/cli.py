"""Command-line pipeline: synth, keyframes, encode, decode, dict, roundtrip.

Every command is deterministic given its inputs and flags. Exit status 0 on
success, 1 on validation/parse failures and on files that cannot be read or
written, 2 on internal invariant breaches.
A config file of ``key = value`` lines can seed any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import encoder, keyframe, laban, robot as robot_mod, skeleton, trajectory
from .errors import LabanMotionError, NoKeyFrames, finite

_FLOAT_KEYS = {"rate", "sigma", "prominence", "min_sep", "merge_window", "tau", "move_seconds", "traj_rate"}
_BOOL_KEYS = {"force_final_keyframe"}
_BOOLS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}
# allowed values of the keys whose flags take a fixed set; argparse and the
# config reader both check against these
CHOICES = {
    "interp": ("linear", "cubic"),
    "peak_mode": ("max", "min"),
    "columns": ("arm", "split"),
}
CONFIG_KEYS = _FLOAT_KEYS | _BOOL_KEYS | set(CHOICES) | {"robot", "dict"}


def _number(text: str):
    """``text`` as a float, or unchanged if it is not one, for a range check to name."""
    try:
        return float(text)
    except ValueError:
        return text


def _read_config(path: str) -> dict:
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip().strip('"')
            if not sep or key not in CONFIG_KEYS:
                raise LabanMotionError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in _FLOAT_KEYS:
                cfg[key] = finite(_number(value), f"{path}:{lineno}: {key}", error=LabanMotionError)
            elif key in _BOOL_KEYS:
                if value.lower() not in _BOOLS:
                    raise LabanMotionError(
                        f"{path}:{lineno}: {key} must be one of {', '.join(_BOOLS)}, got {value!r}"
                    )
                cfg[key] = _BOOLS[value.lower()]
            elif key in CHOICES and value not in CHOICES[key]:
                raise LabanMotionError(
                    f"{path}:{lineno}: {key} must be one of {', '.join(CHOICES[key])}, got {value!r}"
                )
            else:
                cfg[key] = value
    return cfg


def _force_final(kfs: keyframe.KeyFrameSet, n_frames: int, rate: float) -> keyframe.KeyFrameSet:
    """Ensure the last frame is a key frame, keeping the separation bound."""
    last = n_frames - 1
    min_sep_frames = kfs.params.min_separation * rate
    merged = [i for i in kfs.merged if last - i >= min_sep_frames and i != last]
    merged.append(last)
    return keyframe.KeyFrameSet(per_part=kfs.per_part, merged=merged, params=kfs.params)


def _keyframes_json(seq: skeleton.SkeletonSequence, kfs: keyframe.KeyFrameSet) -> str:
    ts = seq.times
    per_part = sorted(kfs.per_part.items(), key=lambda kv: kv[0].value)
    return json.dumps({
        "sample_rate": seq.sample_rate,
        "params": {k: getattr(kfs.params, k)
                   for k in ("sigma", "prominence", "min_separation", "merge_window", "peak_mode")},
        "per_part": {p.value: list(v) for p, v in per_part},
        "per_part_times": {p.value: [round(float(ts[i]), 6) for i in v] for p, v in per_part},
        "merged": list(kfs.merged),
        "merged_times": [round(float(ts[i]), 6) for i in kfs.merged],
    }, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class _Run:
    """One command's settings and the pipeline stages it runs.

    A setting resolves as its flag, then the config file, then the default.
    Observation (skeleton -> key frames -> score) is the same for every
    robot; mapping (score -> key poses -> trajectory) is per robot. Library
    functions are reached through their modules at call time, so wrappers
    installed on a module see every call.
    """

    def __init__(self, args, cfg: dict):
        self.args = args
        self.cfg = cfg

    def get(self, key: str, default=None):
        flag = getattr(self.args, key, None)
        return flag if flag is not None else self.cfg.get(key, default)

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time the block; with --verbose print one ``[name] seconds k=v``
        line with the counts the block puts into the yielded dict."""
        counts: dict = {}
        started = time.perf_counter()
        yield counts
        if self.args.verbose:
            extras = "".join(f" {k}={v}" for k, v in counts.items())
            print(f"[{name}] {time.perf_counter() - started:.3f}s{extras}", file=sys.stderr)

    def observe(self, path: str) -> tuple[skeleton.SkeletonSequence, keyframe.KeyFrameSet]:
        """Load and resample a skeleton, then detect its key frames."""
        with self.stage("load") as counts:
            seq = skeleton.resample(skeleton.load_sequence(path), self.get("rate", 30.0))
            counts["frames"] = len(seq)
        with self.stage("keyframes") as counts:
            params = keyframe.EnergyParams(
                sigma=self.get("sigma", 0.1),
                prominence=self.get("prominence", 0.1),
                min_separation=self.get("min_sep", 0.25),
                merge_window=self.get("merge_window", 0.2),
                peak_mode=self.get("peak_mode", "max"),
            )
            kfs = keyframe.extract_keyframes(seq, params)
            if self.get("force_final_keyframe", False):
                kfs = _force_final(kfs, len(seq), seq.sample_rate)
            counts["merged"] = len(kfs.merged)
        return seq, kfs

    def encode(self, seq: skeleton.SkeletonSequence, kfs: keyframe.KeyFrameSet) -> laban.LabanScore:
        with self.stage("encode") as counts:
            columns = encoder.columns_for_mode(self.get("columns", "arm"))
            score = encoder.encode_sequence(seq, kfs, columns)
            counts["cells"] = sum(len(c.cells) for c in score.columns)
        return score

    def robot(self) -> robot_mod.RobotDescription:
        path = self.get("robot")
        if path is None:
            raise LabanMotionError("a robot description is required (--robot)")
        return robot_mod.load_robot(path)

    def decode(self, score: laban.LabanScore) -> tuple[robot_mod.RobotDescription, list[robot_mod.DecodedPose]]:
        robot = self.robot()
        with self.stage("decode") as counts:
            decoded = robot_mod.decode_score_detailed(score, robot)
            counts["poses"] = len(decoded)
        return robot, decoded

    def synthesize(self, decoded: list[robot_mod.DecodedPose], rate: float) -> trajectory.Trajectory:
        dict_path = self.get("dict")
        mdict = trajectory.load_dictionary(dict_path) if dict_path else None
        with self.stage("trajectory") as counts:
            poses = [d.pose for d in decoded]
            if len(poses) >= 2:
                traj = trajectory.synthesize(poses, [d.states for d in decoded], mdict,
                                             self.get("interp", "linear"), rate)
            else:
                traj = trajectory.Trajectory.from_poses(poses, rate)
            counts["samples"] = len(traj.samples)
        return traj


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_synth(run: _Run) -> int:
    args = run.args
    descriptor: dict = {"pattern": args.pattern}
    for key in ("duration", "part", "from_pose", "to_pose", "hold", "move_seconds"):
        if run.get(key) is not None:
            descriptor[key] = run.get(key)
    if args.pose:
        poses = []
        for item in args.pose:
            name, _, dwell = item.partition(":")
            poses.append([name, _number(dwell or "0.5")])  # synth_motion checks the dwell
        descriptor["poses"] = poses
    seq = skeleton.synth_motion(descriptor, rate=run.get("rate", 30.0))
    skeleton.save_sequence(seq, args.output)
    return 0


def _cmd_keyframes(run: _Run) -> int:
    seq, kfs = run.observe(run.args.skeleton)
    _write(run.args.output, _keyframes_json(seq, kfs))
    return 0


def _cmd_encode(run: _Run) -> int:
    laban.save_score(run.encode(*run.observe(run.args.skeleton)), run.args.output)
    return 0


def _cmd_decode(run: _Run) -> int:
    _, decoded = run.decode(laban.load_score(run.args.score))
    traj = run.synthesize(decoded, run.get("traj_rate", 100.0))
    _write(run.args.output, trajectory.trajectory_to_csv(traj))
    return 0


def _cmd_dict_build(run: _Run) -> int:
    robot = run.robot()
    mdict = trajectory.MotionDictionary(tau=run.get("tau", trajectory.DEFAULT_TAU_DEG))
    columns = tuple(c for c in sorted(robot.column_map) if c in encoder.COLUMN_DISTAL)
    for path in sorted(run.args.skeletons):  # lexicographic: deterministic merge order
        seq, kfs = run.observe(path)
        merged = kfs.merged
        with run.stage(f"build {path}") as counts:
            states = [encoder.encode_pose(seq.positions[i], columns) for i in merged]
            for k in range(len(merged) - 1):
                observed = robot_mod.project_path(seq, merged[k], merged[k + 1], robot)
                key = trajectory.DictKey.from_states(states[k], states[k + 1])
                trajectory.dict_update(mdict, key, observed)
            counts["transitions"] = max(len(merged) - 1, 0)
    trajectory.save_dictionary(mdict, run.args.output)
    return 0


def _cmd_dict_stats(run: _Run) -> int:
    mdict = trajectory.load_dictionary(run.args.dictionary)
    print(f"tau: {mdict.tau}")
    print(f"entries: {len(mdict.entries)}")
    for key in sorted(mdict.entries, key=str):
        entry = mdict.entries[key]
        probs = ", ".join(f"{p:.3f}" for p in entry.probabilities())
        print(f"  {key}: {len(entry.paths)} path(s), counts {[p.count for p in entry.paths]}, probs [{probs}]")
    return 0


def _cmd_roundtrip(run: _Run) -> int:
    robot, decoded = run.decode(laban.load_score(run.args.score))
    matched = 0
    mismatched = 0
    clamped: list[str] = []
    skipped_merged = 0
    for d in decoded:
        for ref, cmd in sorted(d.segments.items()):
            if not cmd.driven:
                continue
            if cmd.merged:
                skipped_merged += 1
                continue
            if cmd.clamped:
                clamped.append(f"t={d.t:.6f} {ref} {cmd.symbol}")
                continue
            symbol = encoder.digitize(robot_mod.joints_to_vector(cmd.yaw, cmd.pitch))
            if symbol == cmd.symbol:
                matched += 1
            else:
                mismatched += 1
                print(f"MISMATCH t={d.t:.6f} {ref}: {cmd.symbol} -> {symbol}")
    total = matched + mismatched
    print(f"robot: {robot.name}")
    print(f"cells compared: {total}, matched: {matched}, mismatched: {mismatched}")
    print(f"clamped (boundary gestures, excluded): {len(clamped)}")
    for line in clamped:
        print(f"  {line}")
    if skipped_merged:
        print(f"merged segments (no single source symbol, excluded): {skipped_merged}")
    return 0 if mismatched == 0 else 1


def _cmd_pipeline(run: _Run) -> int:
    out = run.args.output
    os.makedirs(out, exist_ok=True)  # an unusable output path fails before any stage runs
    seq, kfs = run.observe(run.args.skeleton)
    score = run.encode(seq, kfs)
    robot, decoded = run.decode(score)
    traj = run.synthesize(decoded, run.get("traj_rate", 100.0))
    report = {
        "frames": len(seq),
        "merged_keyframes": len(kfs.merged),
        "cells": sum(len(c.cells) for c in score.columns),
        "key_poses": len(decoded),
        "trajectory_samples": len(traj.samples),
        "clamped_segments": sum(
            1 for d in decoded for cmd in d.segments.values() if cmd.driven and cmd.clamped
        ),
        "robot": robot.name,
    }
    # every stage has succeeded: a failing run leaves no partial output
    _write(os.path.join(out, "keyframes.json"), _keyframes_json(seq, kfs))
    laban.save_score(score, os.path.join(out, "score.json"))
    _write(os.path.join(out, "trajectory.csv"), trajectory.trajectory_to_csv(traj))
    _write(os.path.join(out, "report.json"), json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------

def _add_keyframe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rate", type=float, default=None, help="uniform sampling rate, Hz")
    p.add_argument("--sigma", type=float, default=None, help="smoothing width, seconds")
    p.add_argument("--prominence", type=float, default=None)
    p.add_argument("--min-sep", dest="min_sep", type=float, default=None)
    p.add_argument("--merge-window", dest="merge_window", type=float, default=None)
    p.add_argument("--peak-mode", dest="peak_mode", choices=CHOICES["peak_mode"], default=None)
    p.add_argument("--force-final-keyframe", dest="force_final_keyframe",
                   action="store_const", const=True, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labanmotion")
    parser.add_argument("--config", default=None, help="key=value settings file; flags win")
    parser.add_argument("--verbose", action="store_true", help="per-stage timing on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic skeleton file")
    p.add_argument("pattern", choices=("static", "move_hold_move", "reach_sequence"))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--duration", type=float, default=None, help="static pattern length, s")
    p.add_argument("--part", default=None, help="left_arm | right_arm | head")
    p.add_argument("--from-pose", dest="from_pose", default=None)
    p.add_argument("--to-pose", dest="to_pose", default=None)
    p.add_argument("--hold", type=float, default=None)
    p.add_argument("--move-seconds", dest="move_seconds", type=float, default=None)
    p.add_argument("--pose", action="append", default=None, metavar="NAME:DWELL",
                   help="reach_sequence stop; repeatable")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("keyframes", help="detect key frames")
    p.add_argument("skeleton")
    p.add_argument("-o", "--output", required=True)
    _add_keyframe_flags(p)
    p.set_defaults(func=_cmd_keyframes)

    p = sub.add_parser("encode", help="skeleton -> Labanotation score")
    p.add_argument("skeleton")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--columns", choices=CHOICES["columns"], default=None)
    _add_keyframe_flags(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="score -> joint trajectory CSV")
    p.add_argument("score")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--robot", default=None, help="description file or bundled name")
    p.add_argument("--interp", choices=CHOICES["interp"], default=None)
    p.add_argument("--rate", dest="traj_rate", type=float, default=None, help="trajectory sample rate, Hz")
    p.add_argument("--dict", dest="dict", default=None, help="motion dictionary file")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("dict", help="motion dictionary operations")
    dsub = p.add_subparsers(dest="dict_command", required=True)
    b = dsub.add_parser("build", help="build a dictionary from observations")
    b.add_argument("skeletons", nargs="+")
    b.add_argument("-o", "--output", required=True)
    b.add_argument("--robot", default=None)
    b.add_argument("--tau", type=float, default=None, help="path similarity threshold, deg RMS")
    _add_keyframe_flags(b)
    b.set_defaults(func=_cmd_dict_build)
    s = dsub.add_parser("stats", help="summarize a dictionary")
    s.add_argument("dictionary")
    s.set_defaults(func=_cmd_dict_stats)

    p = sub.add_parser("roundtrip", help="decode then re-encode a score on a robot")
    p.add_argument("score")
    p.add_argument("--robot", default=None)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("pipeline", help="skeleton -> score -> trajectory, all artifacts")
    p.add_argument("skeleton")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--robot", default=None)
    p.add_argument("--columns", choices=CHOICES["columns"], default=None)
    p.add_argument("--interp", choices=CHOICES["interp"], default=None)
    p.add_argument("--dict", dest="dict", default=None)
    p.add_argument("--traj-rate", dest="traj_rate", type=float, default=None)
    _add_keyframe_flags(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config) if args.config else {}
        return args.func(_Run(args, cfg))
    except NoKeyFrames as exc:
        print(f"error: {exc} (try --force-final-keyframe)", file=sys.stderr)
        return 1
    except (LabanMotionError, OSError) as exc:  # OSError: a user path cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
