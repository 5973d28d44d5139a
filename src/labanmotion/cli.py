"""Command-line pipeline: synth, keyframes, encode, decode, dict, roundtrip.

Every command is deterministic given its inputs and flags. Exit status 0 on
success and when the reader of stdout closes it early, 1 on validation/parse
failures and on files that cannot be read or written, 2 on internal
invariant breaches.
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
from .errors import LabanMotionError, NoKeyFrames, finite, read_text

_BOOLS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}
# allowed values of the keys whose flags take a fixed set, as the library
# checks them; argparse and the config reader both check against these
CHOICES = {
    "interp": tuple(trajectory.INTERP_MODES),
    "peak_mode": keyframe.PEAK_MODES,
    "columns": tuple(encoder.COLUMN_MODES),
}
_ENERGY = keyframe.EnergyParams()  # the detector's defaults
# every setting a run reads, flag or config key: key -> (kind, default, help).
# The kind is float, bool, str (any non-empty text) or the tuple of allowed values.
SETTINGS = {
    "rate": (float, 30.0, "skeleton sampling rate, Hz"),
    "sigma": (float, _ENERGY.sigma, "smoothing width, seconds"),
    "prominence": (float, _ENERGY.prominence, "minimum peak prominence, 0-1"),
    "min_sep": (float, _ENERGY.min_separation, "minimum key-frame spacing, seconds"),
    "merge_window": (float, _ENERGY.merge_window, "gap merging key frames across parts, seconds"),
    "peak_mode": (CHOICES["peak_mode"], _ENERGY.peak_mode, "detect energy maxima or minima"),
    "force_final_keyframe": (bool, False, "make the last frame a key frame"),
    "columns": (CHOICES["columns"], "arm", "whole-arm or upper-arm and forearm columns"),
    "robot": (str, None, "description file or bundled name"),
    "interp": (CHOICES["interp"], "linear", "interpolation between key poses"),
    "dict": (str, None, "motion dictionary file"),
    "traj_rate": (float, 100.0, "trajectory sample rate, Hz"),
    "tau": (float, trajectory.DEFAULT_TAU_DEG, "path similarity threshold, deg RMS"),
    "move_seconds": (float, skeleton.DEFAULT_MOVE_SECONDS, "shortest move, seconds"),
}
# config key -> the EnergyParams field it sets
_ENERGY_KEYS = {"sigma": "sigma", "prominence": "prominence", "min_sep": "min_separation",
                "merge_window": "merge_window", "peak_mode": "peak_mode"}
# argparse options of each kind of setting; a tuple of values is the flag's choices
_KIND_OPTIONS = {float: {"type": float}, bool: {"action": "store_const", "const": True}, str: {}}
# each setting's flag, ``--<key>`` with dashes, and its argparse options, worked out once
_FLAGS = {key: ("--" + key.replace("_", "-"), {"dest": key, "help": help, **_KIND_OPTIONS.get(kind, {"choices": kind})})
          for key, (kind, _, help) in SETTINGS.items()}
_KEYFRAME_KEYS = ("rate", *_ENERGY_KEYS, "force_final_keyframe")


def _number(text: str):
    """``text`` as a float, or unchanged if it is not one, for a range check to name."""
    try:
        return float(text)
    except ValueError:
        return text


def _read_config(path: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value, where = key.strip(), value.strip().strip('"'), f"{path}:{lineno}"
        if not sep or key not in SETTINGS:
            raise LabanMotionError(f"{where}: unknown config key {key!r}")
        kind = SETTINGS[key][0]
        if kind is float:
            cfg[key] = finite(_number(value), f"{where}: {key}", error=LabanMotionError)
        elif kind is bool:
            if value.lower() not in _BOOLS:
                raise LabanMotionError(f"{where}: {key} must be one of {', '.join(_BOOLS)}, got {value!r}")
            cfg[key] = _BOOLS[value.lower()]
        elif kind is str and not value:
            raise LabanMotionError(f"{where}: {key} must not be empty")
        elif kind is not str and value not in kind:
            raise LabanMotionError(f"{where}: {key} must be one of {', '.join(kind)}, got {value!r}")
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
        "params": {field: getattr(kfs.params, field) for field in _ENERGY_KEYS.values()},
        "per_part": {p.value: list(v) for p, v in per_part},
        "per_part_times": {p.value: [round(float(ts[i]), 6) for i in v] for p, v in per_part},
        "merged": list(kfs.merged),
        "merged_times": [round(float(ts[i]), 6) for i in kfs.merged],
    }, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, traj: robot_mod.KeyPoses) -> None:
    with open(path, "wb") as fh:  # the formatter writes bytes, block by block
        trajectory.trajectory_to_csv(traj, fh)


class _Run:
    """One command's settings, the pipeline stages it runs and their counts.

    A setting resolves as its flag, then the config file, then its
    :data:`SETTINGS` default. ``counts`` holds what the stages counted, under
    the names of ``pipeline``'s report.json. Observation (skeleton -> key
    frames -> score) is the same for every robot; mapping (score -> key poses
    -> trajectory) is per robot. Library functions are reached through their
    modules at call time, so wrappers installed on a module see every call.
    """

    def __init__(self, args, cfg: dict):
        self.args = args
        self.cfg = cfg
        self.counts: dict = {}

    def get(self, key: str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        return self.cfg[key] if key in self.cfg else SETTINGS[key][1]

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time the block and merge the counts it puts into the yielded dict into
        ``self.counts``; with --verbose print them as one ``[name] seconds k=v`` line."""
        counts: dict = {}
        started = time.perf_counter()
        yield counts
        self.counts.update(counts)
        if self.args.verbose:
            extras = "".join(f" {k}={v}" for k, v in counts.items())
            print(f"[{name}] {time.perf_counter() - started:.3f}s{extras}", file=sys.stderr)

    def observe(self, path: str) -> tuple[skeleton.SkeletonSequence, keyframe.KeyFrameSet]:
        """Load and resample a skeleton, then detect its key frames."""
        with self.stage("load") as counts:
            seq = skeleton.resample(skeleton.load_sequence(path), self.get("rate"))
            counts["frames"] = len(seq)
        with self.stage("keyframes") as counts:
            params = keyframe.EnergyParams(**{field: self.get(key) for key, field in _ENERGY_KEYS.items()})
            kfs = keyframe.extract_keyframes(seq, params)
            if self.get("force_final_keyframe"):
                kfs = _force_final(kfs, len(seq), seq.sample_rate)
            counts["merged_keyframes"] = len(kfs.merged)
        return seq, kfs

    def encode(self, seq: skeleton.SkeletonSequence, kfs: keyframe.KeyFrameSet) -> laban.LabanScore:
        with self.stage("encode") as counts:
            score = encoder.encode_sequence(seq, kfs, encoder.COLUMN_MODES[self.get("columns")])
            counts["cells"] = sum(len(c.cells) for c in score.columns)
        return score

    def robot(self) -> robot_mod.RobotDescription:
        path = self.get("robot")
        if path is None:
            raise LabanMotionError("a robot description is required (--robot)")
        return robot_mod.load_robot(path)

    def dictionary(self) -> trajectory.MotionDictionary | None:
        path = self.get("dict")
        return trajectory.load_dictionary(path) if path is not None else None

    def decode(self, score: laban.LabanScore, robot: robot_mod.RobotDescription) -> robot_mod.DecodedScore:
        with self.stage("decode") as counts:
            decoded = robot_mod.decode_score_detailed(score, robot)
            counts["key_poses"] = len(decoded)
            counts["clamped_segments"] = int(decoded.clamped.sum())
        return decoded

    def synthesize(self, decoded: robot_mod.DecodedScore,
                   mdict: trajectory.MotionDictionary | None) -> robot_mod.KeyPoses:
        with self.stage("trajectory") as counts:
            poses, rate = decoded.poses, self.get("traj_rate")
            if len(poses) >= 2:
                traj = trajectory.synthesize(poses, decoded.codes, mdict, self.get("interp"), rate,
                                             decoded.columns)
            else:  # fewer poses than synthesize needs: the poses themselves are the trajectory
                finite(rate, "trajectory rate", 0.0, strict=True)
                traj = poses
            counts["trajectory_samples"] = len(traj.samples)
        return traj


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_synth(run: _Run) -> int:
    args = run.args
    descriptor = {key: getattr(args, key) for key in ("duration", "part", "from_pose", "to_pose", "hold")
                  if getattr(args, key) is not None}
    descriptor.update(pattern=args.pattern, move_seconds=run.get("move_seconds"))
    if args.pose:
        poses = []
        for item in args.pose:
            name, _, dwell = item.partition(":")
            poses.append([name, _number(dwell or "0.5")])  # synth_motion checks the dwell
        descriptor["poses"] = poses
    seq = skeleton.synth_motion(descriptor, rate=run.get("rate"))
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
    score, robot, mdict = laban.load_score(run.args.score), run.robot(), run.dictionary()
    _write_csv(run.args.output, run.synthesize(run.decode(score, robot), mdict))
    return 0


def _cmd_dict_build(run: _Run) -> int:
    robot = run.robot()
    mdict = trajectory.MotionDictionary(tau=run.get("tau"))
    columns = robot.mapped_columns
    for path in sorted(run.args.skeletons):  # lexicographic: deterministic merge order
        try:
            seq, kfs = run.observe(path)
            merged = kfs.merged
            with run.stage(f"build {path}") as counts:
                codes = encoder.encode_poses(seq.positions[merged], columns).tolist()
                if len(merged) >= 2:
                    # one projection per clip, so frames shared by two transitions
                    # are projected once; each transition's path is a slice of it
                    clip = robot_mod.project_path(seq, merged[0], merged[-1], robot)
                    for k, (a, b) in enumerate(zip(merged, merged[1:])):
                        rows = slice(a - merged[0], b - merged[0] + 1)
                        observed = robot_mod.KeyPoses(clip.times[rows], clip.joints, clip.samples[rows])
                        key = trajectory.dict_key(columns, codes[k], codes[k + 1])
                        trajectory.dict_update(mdict, key, observed)
                counts["transitions"] = max(len(merged) - 1, 0)
        except LabanMotionError as exc:
            if getattr(exc, "location", None) != path:  # the not-UTF-8 error names its file already
                exc.path = path
            raise
    trajectory.save_dictionary(mdict, run.args.output)
    return 0


def _cmd_dict_stats(run: _Run) -> int:
    mdict = trajectory.load_dictionary(run.args.dictionary)
    print(f"tau: {mdict.tau}\nentries: {len(mdict.entries)}")
    for key in sorted(mdict.entries):
        entry = mdict.entries[key]
        probs = ", ".join(f"{p:.3f}" for p in entry.probabilities())
        print(f"  {key}: {len(entry.paths)} path(s), counts {[p.count for p in entry.paths]}, probs [{probs}]")
    return 0


def _cmd_roundtrip(run: _Run) -> int:
    decoded = run.decode(laban.load_score(run.args.score), run.robot())
    table = decoded.robot.segment_table
    joint = {j: c for c, j in enumerate(decoded.poses.joints)}
    code_column = {col: c for c, col in enumerate(decoded.columns)}
    order = sorted((ref, s) for s, (ref, _, _) in enumerate(table))  # segment indices in ref order
    driven, flags, states, samples = (a.tolist() for a in (decoded.driven, decoded.clamped, decoded.codes,
                                                           decoded.poses.samples))
    clamped: list[str] = []
    checked, directions = [], []  # (t, ref, symbol) and joint direction of each segment re-encoded
    for i, t in enumerate(decoded.poses.times.tolist()):
        for ref, s in order:
            _, seg, col = table[s]
            if not driven[i][s]:
                continue
            symbol = laban.VALID_LIMB_SYMBOLS[states[i][code_column[col]]]
            if flags[i][s]:
                clamped.append(f"t={t:.6f} {ref} {symbol}")
                continue
            checked.append((t, ref, symbol))
            yaw, pitch = samples[i][joint[seg.yaw_joint]], samples[i][joint[seg.pitch_joint]]
            directions.append(laban.direction_vector(yaw, pitch))
    codes = encoder.direction_codes(directions).tolist()
    mismatched = 0
    for (t, ref, symbol), code in zip(checked, codes):
        back = laban.VALID_LIMB_SYMBOLS[code]
        if back != symbol:
            mismatched += 1
            print(f"MISMATCH t={t:.6f} {ref}: {symbol} -> {back}")
    matched = len(checked) - mismatched
    print(f"robot: {decoded.robot.name}")
    print(f"cells compared: {matched + mismatched}, matched: {matched}, mismatched: {mismatched}")
    print(f"clamped (boundary gestures, excluded): {len(clamped)}")
    for line in clamped:
        print(f"  {line}")
    return 0 if mismatched == 0 else 1


def _cmd_pipeline(run: _Run) -> int:
    out = run.args.output
    os.makedirs(out, exist_ok=True)  # an unusable output path fails before any stage runs
    robot, mdict = run.robot(), run.dictionary()  # so do a robot and a dictionary that cannot load
    seq, kfs = run.observe(run.args.skeleton)
    score = run.encode(seq, kfs)
    traj = run.synthesize(run.decode(score, robot), mdict)
    # every stage has succeeded: a failing run leaves no partial output
    _write(os.path.join(out, "keyframes.json"), _keyframes_json(seq, kfs))
    laban.save_score(score, os.path.join(out, "score.json"))
    _write_csv(os.path.join(out, "trajectory.csv"), traj)
    report = dict(run.counts, robot=robot.name)  # the same counts --verbose prints
    _write(os.path.join(out, "report.json"), json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------

def _add_options(parser: argparse.ArgumentParser, options) -> None:
    """Add each option: a setting's key, for its flag, or a ``(flag, argparse
    options)`` pair. A setting's flag not given leaves None, so the config
    file or the default decides."""
    for option in options:
        flag, kwargs = _FLAGS[option] if isinstance(option, str) else option
        parser.add_argument(flag, **kwargs)


class _Subcommand:
    """A subcommand's parser, built and given its arguments by ``fill`` when
    it first parses, so a run builds the parser of the command it runs and
    no other. argparse reaches a subcommand's parser only through
    ``parse_known_args``; the command's name and help live in the parent."""

    def __init__(self, fill, **kwargs):
        self._fill, self._kwargs, self._parser = fill, kwargs, None

    def parse_known_args(self, args=None, namespace=None):
        if self._parser is None:
            self._parser = argparse.ArgumentParser(**self._kwargs)
            self._fill(self._parser)
        return self._parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labanmotion")
    parser.add_argument("--config", default=None, help="key=value settings file; flags win")
    parser.add_argument("--verbose", action="store_true", help="per-stage timing and counts on stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def command(subs, name, func, help, *positionals, output="output file", options=(), **shaped):
        """A subcommand whose parser, built when it first parses, takes positionals, then
        ``shaped`` ones with their options, then -o unless output is None, then ``options``
        (see :func:`_add_options`)."""
        def fill(p):
            for arg, kwargs in {**dict.fromkeys(positionals, {}), **shaped}.items():
                p.add_argument(arg, **kwargs)
            if output:
                p.add_argument("-o", "--output", required=True, help=output)
            _add_options(p, options)
            p.set_defaults(func=func)

        subs.add_parser(name, help=help, fill=fill)

    command(sub, "synth", _cmd_synth, "generate a synthetic skeleton file",
            pattern={"choices": ("static", "move_hold_move", "reach_sequence")},
            options=("rate",
                     ("--duration", {"type": float, "help": "static pattern length, s"}),
                     ("--part", {"help": "left_arm | right_arm | head"}),
                     ("--from-pose", {}), ("--to-pose", {}), ("--hold", {"type": float}),
                     "move_seconds",
                     ("--pose", {"action": "append", "metavar": "NAME:DWELL",
                                 "help": "reach_sequence stop; repeatable"})))
    command(sub, "keyframes", _cmd_keyframes, "detect key frames", "skeleton", options=_KEYFRAME_KEYS)
    command(sub, "encode", _cmd_encode, "skeleton -> Labanotation score", "skeleton",
            options=("columns", *_KEYFRAME_KEYS))
    command(sub, "decode", _cmd_decode, "score -> joint trajectory CSV", "score",
            options=("robot", "interp", ("--rate", _FLAGS["traj_rate"][1]), "dict"))

    def dict_commands(p):
        dsub = p.add_subparsers(dest="dict_command", required=True, parser_class=_Subcommand)
        command(dsub, "build", _cmd_dict_build, "build a dictionary from observations", skeletons={"nargs": "+"},
                options=("robot", "tau", *_KEYFRAME_KEYS))
        command(dsub, "stats", _cmd_dict_stats, "summarize a dictionary", "dictionary", output=None)

    sub.add_parser("dict", help="motion dictionary operations", fill=dict_commands)
    command(sub, "roundtrip", _cmd_roundtrip, "decode then re-encode a score on a robot", "score", output=None,
            options=("robot",))
    command(sub, "pipeline", _cmd_pipeline, "skeleton -> score -> trajectory, all artifacts", "skeleton",
            output="output directory", options=("robot", "columns", "interp", "dict", "traj_rate", *_KEYFRAME_KEYS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _read_config(args.config) if args.config is not None else {}
        status = args.func(_Run(args, cfg))
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return status
    except BrokenPipeError:  # the reader of stdout has gone, as in `| head -1`: not an input fault
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit writes nowhere
        return 0
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
