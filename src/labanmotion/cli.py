"""Command-line pipeline: synth, keyframes, encode, decode, dict, roundtrip.

Every command is deterministic given its inputs and flags. Exit status 0 on
success, 1 on validation/parse failures and on files that cannot be read or
written, 2 on internal invariant breaches.
A config file of ``key = value`` lines can seed any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import encoder, keyframe, laban, robot as robot_mod, skeleton, trajectory
from .errors import LabanMotionError, NoKeyFrames

CONFIG_KEYS = {
    "rate",
    "sigma",
    "prominence",
    "min_sep",
    "merge_window",
    "peak_mode",
    "columns",
    "interp",
    "tau",
    "robot",
    "dict",
    "force_final_keyframe",
    "move_seconds",
    "traj_rate",
}

_FLOAT_KEYS = {"rate", "sigma", "prominence", "min_sep", "merge_window", "tau", "move_seconds", "traj_rate"}
_BOOL_KEYS = {"force_final_keyframe"}
# allowed values of the keys whose flags take a fixed set; argparse and the
# config reader both check against these
CHOICES = {
    "interp": ("linear", "cubic"),
    "peak_mode": ("max", "min"),
    "columns": ("arm", "split"),
}


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
                try:
                    cfg[key] = float(value)
                except ValueError:
                    cfg[key] = math.nan
                if not math.isfinite(cfg[key]):
                    raise LabanMotionError(f"{path}:{lineno}: {key} needs a finite number, got {value!r}")
            elif key in _BOOL_KEYS:
                cfg[key] = value.lower() in ("1", "true", "yes")
            elif key in CHOICES and value not in CHOICES[key]:
                raise LabanMotionError(
                    f"{path}:{lineno}: {key} must be one of {', '.join(CHOICES[key])}, got {value!r}"
                )
            else:
                cfg[key] = value
    return cfg


def _setting(args, cfg: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _energy_params(args, cfg) -> keyframe.EnergyParams:
    return keyframe.EnergyParams(
        sigma=_setting(args, cfg, "sigma", 0.1),
        prominence=_setting(args, cfg, "prominence", 0.1),
        min_separation=_setting(args, cfg, "min_sep", 0.25),
        merge_window=_setting(args, cfg, "merge_window", 0.2),
        peak_mode=_setting(args, cfg, "peak_mode", "max"),
    )


def _load_uniform(path: str, rate: float) -> skeleton.SkeletonSequence:
    seq = skeleton.load_sequence(path)
    return skeleton.resample(seq, rate)


def _force_final(kfs: keyframe.KeyFrameSet, n_frames: int, rate: float) -> keyframe.KeyFrameSet:
    """Ensure the last frame is a key frame, keeping the separation bound."""
    last = n_frames - 1
    min_sep_frames = kfs.params.min_separation * rate
    merged = [i for i in kfs.merged if last - i >= min_sep_frames and i != last]
    merged.append(last)
    return keyframe.KeyFrameSet(per_part=kfs.per_part, merged=merged, params=kfs.params)


def _keyframes_obj(seq: skeleton.SkeletonSequence, kfs: keyframe.KeyFrameSet) -> dict:
    ts = seq.times
    return {
        "sample_rate": seq.sample_rate,
        "params": {
            "sigma": kfs.params.sigma,
            "prominence": kfs.params.prominence,
            "min_separation": kfs.params.min_separation,
            "merge_window": kfs.params.merge_window,
            "peak_mode": kfs.params.peak_mode,
        },
        "per_part": {p.value: list(v) for p, v in sorted(kfs.per_part.items(), key=lambda kv: kv[0].value)},
        "per_part_times": {
            p.value: [round(float(ts[i]), 6) for i in v]
            for p, v in sorted(kfs.per_part.items(), key=lambda kv: kv[0].value)
        },
        "merged": list(kfs.merged),
        "merged_times": [round(float(ts[i]), 6) for i in kfs.merged],
    }


class _Stage:
    """Optional per-stage timing/count lines on stderr."""

    def __init__(self, verbose: bool):
        self.verbose = verbose

    def done(self, name: str, started: float, **counts):
        if self.verbose:
            extras = " ".join(f"{k}={v}" for k, v in counts.items())
            print(f"[{name}] {time.perf_counter() - started:.3f}s {extras}".rstrip(), file=sys.stderr)


def _detect(seq, args, cfg, stage: _Stage) -> keyframe.KeyFrameSet:
    t0 = time.perf_counter()
    params = _energy_params(args, cfg)
    kfs = keyframe.extract_keyframes(seq, params)
    if _setting(args, cfg, "force_final_keyframe", False):
        kfs = _force_final(kfs, len(seq), seq.sample_rate)
    stage.done("keyframes", t0, merged=len(kfs.merged))
    return kfs


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_synth(args, cfg) -> int:
    rate = _setting(args, cfg, "rate", 30.0)
    descriptor: dict = {"pattern": args.pattern}
    if args.duration is not None:
        descriptor["duration"] = args.duration
    if args.part is not None:
        descriptor["part"] = args.part
    if args.from_pose is not None:
        descriptor["from_pose"] = args.from_pose
    if args.to_pose is not None:
        descriptor["to_pose"] = args.to_pose
    if args.hold is not None:
        descriptor["hold"] = args.hold
    move_seconds = _setting(args, cfg, "move_seconds", None)
    if move_seconds is not None:
        descriptor["move_seconds"] = move_seconds
    if args.pose:
        poses = []
        for item in args.pose:
            name, _, dwell = item.partition(":")
            poses.append([name, dwell or 0.5])  # synth_motion checks the dwell
        descriptor["poses"] = poses
    seq = skeleton.synth_motion(descriptor, rate=rate)
    skeleton.save_sequence(seq, args.output)
    return 0


def _cmd_keyframes(args, cfg) -> int:
    stage = _Stage(args.verbose)
    rate = _setting(args, cfg, "rate", 30.0)
    seq = _load_uniform(args.skeleton, rate)
    kfs = _detect(seq, args, cfg, stage)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(_keyframes_obj(seq, kfs), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cmd_encode(args, cfg) -> int:
    stage = _Stage(args.verbose)
    rate = _setting(args, cfg, "rate", 30.0)
    seq = _load_uniform(args.skeleton, rate)
    kfs = _detect(seq, args, cfg, stage)
    columns = encoder.columns_for_mode(_setting(args, cfg, "columns", "arm"))
    t0 = time.perf_counter()
    score = encoder.encode_sequence(seq, kfs, columns)
    stage.done("encode", t0, cells=sum(len(c.cells) for c in score.columns))
    laban.save_score(score, args.output)
    return 0


def _load_robot(args, cfg) -> robot_mod.RobotDescription:
    path = _setting(args, cfg, "robot", None)
    if path is None:
        raise LabanMotionError("a robot description is required (--robot)")
    return robot_mod.load_robot(path)


def _decode_to_csv(score: laban.LabanScore, robot, rate: float, path: str, args, cfg,
                   stage: _Stage) -> tuple[list[robot_mod.DecodedPose], trajectory.Trajectory]:
    """Decode the score, synthesize its trajectory and write it as CSV."""
    t0 = time.perf_counter()
    decoded = robot_mod.decode_score_detailed(score, robot)
    stage.done("decode", t0, poses=len(decoded))
    mdict = None
    dict_path = _setting(args, cfg, "dict", None)
    if dict_path:
        mdict = trajectory.load_dictionary(dict_path)
    t0 = time.perf_counter()
    poses = [d.pose for d in decoded]
    if len(poses) >= 2:
        states = [d.states for d in decoded]
        traj = trajectory.synthesize(poses, states, mdict, _setting(args, cfg, "interp", "linear"), rate)
    else:
        traj = trajectory.Trajectory.from_poses(poses, rate)
    stage.done("trajectory", t0, samples=len(traj.samples))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trajectory.trajectory_to_csv(traj))
    return decoded, traj


def _cmd_decode(args, cfg) -> int:
    score = laban.load_score(args.score)
    robot = _load_robot(args, cfg)
    _decode_to_csv(score, robot, _setting(args, cfg, "rate", 100.0), args.output, args, cfg,
                   _Stage(args.verbose))
    return 0


def _cmd_dict_build(args, cfg) -> int:
    stage = _Stage(args.verbose)
    robot = _load_robot(args, cfg)
    rate = _setting(args, cfg, "rate", 30.0)
    mdict = trajectory.MotionDictionary(tau=_setting(args, cfg, "tau", trajectory.DEFAULT_TAU_DEG))
    columns = tuple(c for c in sorted(robot.column_map) if c in encoder.COLUMN_DISTAL)
    for path in sorted(args.skeletons):  # lexicographic: deterministic merge order
        t0 = time.perf_counter()
        seq = _load_uniform(path, rate)
        kfs = _detect(seq, args, cfg, stage)
        merged = kfs.merged
        states = [encoder.encode_pose(seq.positions[i], columns) for i in merged]
        for k in range(len(merged) - 1):
            observed = robot_mod.project_path(seq, merged[k], merged[k + 1], robot)
            key = trajectory.DictKey.from_states(states[k], states[k + 1])
            trajectory.dict_update(mdict, key, observed)
        stage.done(f"build {path}", t0, transitions=max(len(merged) - 1, 0))
    trajectory.save_dictionary(mdict, args.output)
    return 0


def _cmd_dict_stats(args, cfg) -> int:
    mdict = trajectory.load_dictionary(args.dictionary)
    print(f"tau: {mdict.tau}")
    print(f"entries: {len(mdict.entries)}")
    for key in sorted(mdict.entries, key=str):
        entry = mdict.entries[key]
        probs = ", ".join(f"{p:.3f}" for p in entry.probabilities())
        print(f"  {key}: {len(entry.paths)} path(s), counts {[p.count for p in entry.paths]}, probs [{probs}]")
    return 0


def _cmd_roundtrip(args, cfg) -> int:
    score = laban.load_score(args.score)
    robot = _load_robot(args, cfg)
    decoded = robot_mod.decode_score_detailed(score, robot)
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


def _cmd_pipeline(args, cfg) -> int:
    import os

    stage = _Stage(args.verbose)
    os.makedirs(args.output, exist_ok=True)
    rate = _setting(args, cfg, "rate", 30.0)
    seq = _load_uniform(args.skeleton, rate)
    kfs = _detect(seq, args, cfg, stage)
    with open(os.path.join(args.output, "keyframes.json"), "w", encoding="utf-8") as fh:
        json.dump(_keyframes_obj(seq, kfs), fh, indent=2, sort_keys=True)
        fh.write("\n")

    columns = encoder.columns_for_mode(_setting(args, cfg, "columns", "arm"))
    score = encoder.encode_sequence(seq, kfs, columns)
    laban.save_score(score, os.path.join(args.output, "score.json"))

    robot = _load_robot(args, cfg)
    decoded, traj = _decode_to_csv(score, robot, _setting(args, cfg, "traj_rate", 100.0),
                                   os.path.join(args.output, "trajectory.csv"), args, cfg, stage)

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
    with open(os.path.join(args.output, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    p.add_argument("--rate", type=float, default=None, help="trajectory sample rate, Hz")
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
        return args.func(args, cfg)
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
