import json
import math
import os
import random
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from labanmotion import cli, encoder, keyframe, trajectory
from labanmotion.cli import main
from labanmotion.laban import VALID_LIMB_SYMBOLS, Direction, LabanSymbol, Level, load_score
from labanmotion.robot import KeyPoses, decode_score_detailed, load_robot
from labanmotion.skeleton import load_sequence, save_sequence, synth_motion

from conftest import dict_build_per_transition, random_rotation, state_key, transform_sequence

DATA = os.path.join(os.path.dirname(__file__), "data")


def _synth(tmp_path, name="clip.json", pattern=None):
    out = str(tmp_path / name)
    argv = pattern or [
        "synth", "reach_sequence", "--part", "right_arm",
        "--pose", "place_low:0.6", "--pose", "forward_middle:0.5", "-o", out,
    ]
    assert main(argv) == 0
    return out


def _reach_clip(tmp_path):
    """A right-arm clip of three stops, 0.6 s each, as clip.json."""
    out = str(tmp_path / "clip.json")
    return _synth(tmp_path, pattern=["synth", "reach_sequence", "--pose", "place_low:0.6", "--pose",
                                     "forward_middle:0.6", "--pose", "right_high:0.6", "-o", out])


def test_synth_writes_loadable_file(tmp_path):
    path = _synth(tmp_path)
    seq = load_sequence(path)
    assert len(seq) > 30
    assert seq.sample_rate == 30.0


def test_synth_reach_sequence_flags(tmp_path):
    out = str(tmp_path / "reach.json")
    assert main([
        "synth", "reach_sequence", "--part", "left_arm",
        "--pose", "place_low:0.5", "--pose", "left_middle:0.5", "--pose", "place_high:0.5",
        "-o", out,
    ]) == 0
    assert len(load_sequence(out)) > 60


def test_synth_bad_pose_exits_1(tmp_path):
    out = str(tmp_path / "x.json")
    rc = main([
        "synth", "reach_sequence", "--part", "right_arm",
        "--pose", "nope:0.6", "--pose", "forward_middle:0.5", "-o", out,
    ])
    assert rc == 1


def test_keyframes_command(tmp_path):
    clip = _synth(tmp_path)
    out = str(tmp_path / "kf.json")
    assert main(["keyframes", clip, "-o", out]) == 0
    obj = json.loads(open(out).read())
    assert obj["merged"], "expected at least one key frame"
    assert obj["sample_rate"] == 30.0
    assert len(obj["merged_times"]) == len(obj["merged"])


def test_choices_and_keyframe_defaults_come_from_the_library(tmp_path):
    assert cli.CHOICES == {"interp": ("linear", "cubic"), "columns": ("arm", "split")}
    for mode in cli.CHOICES["interp"]:
        poses = KeyPoses([0.0, 1.0], ("j",), [[0.0], [2.0]])
        assert trajectory.synthesize(poses, None, None, mode, 2.0).samples[1, 0] == 1.0
    for mode in cli.CHOICES["columns"]:
        assert set(encoder.COLUMN_MODES[mode]) <= set(encoder.COLUMN_DISTAL)
    # with no flags and no config, key frames are found with the EnergyParams defaults
    clip = _synth(tmp_path)
    assert main(["keyframes", clip, "-o", str(tmp_path / "kf.json")]) == 0
    params = json.loads((tmp_path / "kf.json").read_text())["params"]
    assert params == {k: getattr(keyframe.EnergyParams(), k) for k in params} and len(params) == 4
    # a given setting replaces its default only
    (tmp_path / "run.cfg").write_text("sigma = 0.05\n")
    assert main(["--config", str(tmp_path / "run.cfg"), "keyframes", clip, "--min-sep", "0.5",
                 "-o", str(tmp_path / "kf2.json")]) == 0
    params = json.loads((tmp_path / "kf2.json").read_text())["params"]
    assert params == {k: getattr(keyframe.EnergyParams(sigma=0.05, min_separation=0.5), k) for k in params}


def test_encode_decode_pipeline_files(tmp_path):
    clip = _synth(tmp_path)
    score_path = str(tmp_path / "score.json")
    assert main(["encode", clip, "-o", score_path]) == 0
    score = load_score(score_path)
    right = dict(score.columns)["RightArm"]
    assert [str(VALID_LIMB_SYMBOLS[c.code]) for c in right] == ["Place.Low", "Forward.Middle"]

    traj_path = str(tmp_path / "traj.csv")
    assert main(["decode", score_path, "--robot", "frontal_7dof", "--interp", "cubic",
                 "--rate", "100", "-o", traj_path]) == 0
    lines = open(traj_path).read().strip().split("\n")
    assert lines[0].startswith("t,")
    assert len(lines) > 50


def test_static_needs_force_final(tmp_path):
    clip = _synth(tmp_path, "static.json",
                  ["synth", "reach_sequence", "--pose", "place_low:2", "-o", str(tmp_path / "static.json")])
    score_path = str(tmp_path / "score.json")
    assert main(["encode", clip, "-o", score_path]) == 1  # NoKeyFrames
    assert main(["encode", clip, "--force-final-keyframe", "-o", score_path]) == 0
    score = load_score(score_path)
    assert all(len(c.cells) == 1 for c in score.columns)


def test_corrupt_score_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["decode", str(bad), "--robot", "frontal_7dof", "-o", str(tmp_path / "t.csv")]) == 1
    assert main(["roundtrip", str(bad), "--robot", "frontal_7dof"]) == 1


def test_roundtrip_frontal_golden(capsys):
    rc = main(["roundtrip", os.path.join(DATA, "golden_frontal_score.json"), "--robot", "frontal_7dof"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mismatched: 0" in out
    assert "clamped (boundary gestures, excluded): 0" in out


def test_roundtrip_backward_reports_clamped(capsys):
    rc = main(["roundtrip", os.path.join(DATA, "golden_backward_score.json"), "--robot", "frontal_7dof"])
    out = capsys.readouterr().out
    assert rc == 0  # clamped cells are excluded, the rest match
    assert "mismatched: 0" in out
    assert "Backward" in out


@pytest.mark.parametrize("robot", ["frontal_7dof", "lab_9dof"])
def test_roundtrip_quantizes_once_per_run(capsys, monkeypatch, robot):
    """roundtrip re-encodes every compared segment in one direction_codes
    call, and prints a MISMATCH line per segment whose code comes back
    different, in pose then segment order."""
    score = os.path.join(DATA, "golden_backward_score.json")
    assert main(["roundtrip", score, "--robot", robot]) == 0
    clean = capsys.readouterr().out
    calls = []
    direction_codes = encoder.direction_codes

    def shifted_codes(directions):
        calls.append(len(directions))
        return (direction_codes(directions) + 1) % 26

    monkeypatch.setattr(encoder, "direction_codes", shifted_codes)
    assert main(["roundtrip", score, "--robot", robot]) == 1
    out = capsys.readouterr().out
    want = []
    decoded = decode_score_detailed(load_score(score), load_robot(robot))
    table = decoded.robot.segment_table
    for i, t in enumerate(decoded.poses.times.tolist()):
        for s in sorted(range(len(table)), key=lambda s: table[s][0]):
            ref, _, col = table[s]
            if decoded.driven[i, s] and not decoded.clamped[i, s]:
                code = decoded.codes[i, decoded.columns.index(col)]
                symbol, back = VALID_LIMB_SYMBOLS[code], VALID_LIMB_SYMBOLS[(code + 1) % 26]
                want.append(f"MISMATCH t={t:.6f} {ref}: {symbol} -> {back}")
    assert len(calls) == 1 and calls[0] == len(want) > 0
    assert out.splitlines() == want + clean.replace(f"matched: {len(want)}, mismatched: 0",
                                                    f"matched: 0, mismatched: {len(want)}").splitlines()


def test_pipeline_end_to_end(tmp_path):
    clip = _synth(tmp_path)
    outdir = str(tmp_path / "out")
    # trajectory rate matching the clip rate keeps key times on the grid
    assert main(["pipeline", clip, "--robot", "frontal_7dof", "--traj-rate", "30",
                 "-o", outdir]) == 0
    for name in ("keyframes.json", "score.json", "trajectory.csv", "report.json"):
        assert os.path.exists(os.path.join(outdir, name))
    report = json.loads(open(os.path.join(outdir, "report.json")).read())
    assert report["cells"] >= 2
    assert report["key_poses"] >= 2
    # the trajectory hits both decoded poses: down at the first key, forward at the end
    lines = open(os.path.join(outdir, "trajectory.csv")).read().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    pitches = [float(r["r_shoulder_pitch"]) for r in rows]
    assert pitches[0] == pytest.approx(-90.0, abs=1e-3)
    assert pitches[-1] == pytest.approx(0.0, abs=1e-3)


def test_keyframes_and_encode_write_what_the_pipeline_writes(tmp_path):
    """keyframes and encode run the pipeline's first stages alone: with no
    flags and no config they write its keyframes.json and score.json byte for
    byte, so none of the three has a default the others do not share."""
    clip = _reach_clip(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", clip, "--robot", "lab_9dof", "-o", str(out)]) == 0
    assert main(["keyframes", clip, "-o", str(tmp_path / "kf.json")]) == 0
    assert main(["encode", clip, "-o", str(tmp_path / "score.json")]) == 0
    assert (tmp_path / "kf.json").read_bytes() == (out / "keyframes.json").read_bytes()
    assert (tmp_path / "score.json").read_bytes() == (out / "score.json").read_bytes()


def test_pipeline_deterministic(tmp_path):
    clip = _synth(tmp_path)
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    assert main(["pipeline", clip, "--robot", "lab_9dof", "-o", out1]) == 0
    assert main(["pipeline", clip, "--robot", "lab_9dof", "-o", out2]) == 0
    for name in ("keyframes.json", "score.json", "trajectory.csv", "report.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, f"{name} differs between runs"


def test_dict_build_and_stats(tmp_path, capsys):
    clip1 = _synth(tmp_path, "c1.json")
    clip2 = _synth(tmp_path, "c2.json", [
        "synth", "reach_sequence", "--part", "right_arm",
        "--pose", "place_low:0.6", "--pose", "left_high:0.5", "-o", str(tmp_path / "c2.json"),
    ])
    dict_path = str(tmp_path / "dict.json")
    assert main(["dict", "build", clip1, clip2, "--robot", "frontal_7dof", "-o", dict_path]) == 0
    assert main(["dict", "stats", dict_path]) == 0
    out = capsys.readouterr().out
    assert "entries:" in out

    # rebuilding is bit-identical, and the dictionary loads and serializes back to its own bytes
    dict_path2 = str(tmp_path / "dict2.json")
    assert main(["dict", "build", clip1, clip2, "--robot", "frontal_7dof", "-o", dict_path2]) == 0
    assert open(dict_path, "rb").read() == open(dict_path2, "rb").read()
    text = trajectory.serialize_dictionary(trajectory.load_dictionary(dict_path))
    assert text.encode("utf-8") == open(dict_path, "rb").read()

    # decode with the dictionary still works
    score_path = str(tmp_path / "score.json")
    assert main(["encode", clip1, "-o", score_path]) == 0
    traj_path = str(tmp_path / "traj.csv")
    assert main(["decode", score_path, "--robot", "frontal_7dof", "--dict", dict_path,
                 "-o", traj_path]) == 0
    assert os.path.exists(traj_path)


def test_config_file_and_override(tmp_path):
    clip = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 0.1\nprominence = 0.1\nrobot = frontal_7dof\n")
    out = str(tmp_path / "kf.json")
    assert main(["--config", str(cfg), "keyframes", clip, "-o", out]) == 0
    obj = json.loads(open(out).read())
    assert obj["params"]["sigma"] == 0.1
    # flag overrides config
    assert main(["--config", str(cfg), "keyframes", clip, "--sigma", "0.2", "-o", out]) == 0
    obj = json.loads(open(out).read())
    assert obj["params"]["sigma"] == 0.2


def test_config_unknown_key_rejected(tmp_path):
    clip = _synth(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("smoothing = 0.1\n")
    assert main(["--config", str(cfg), "keyframes", clip, "-o", str(tmp_path / "kf.json")]) == 1


def test_encode_split_columns(tmp_path):
    clip = _synth(tmp_path)
    score_path = str(tmp_path / "split_score.json")
    assert main(["encode", clip, "--columns", "split", "-o", score_path]) == 0
    score = load_score(score_path)
    names = {c.name for c in score.columns}
    assert names == {"LeftUpperArm", "LeftForearm", "RightUpperArm", "RightForearm", "Head"}


def test_verbose_stderr_lines(tmp_path, capsys):
    clip = _synth(tmp_path)
    assert main(["--verbose", "keyframes", clip, "-o", str(tmp_path / "kf.json")]) == 0
    err = capsys.readouterr().err
    assert "[keyframes]" in err
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["pipeline", clip, "--robot", "frontal_7dof", "-o", str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["--verbose", "pipeline", clip, "--robot", "frontal_7dof", "-o", str(loud)]) == 0
    lines = capsys.readouterr().err.splitlines()
    stages = [line.split("]")[0] + "]" for line in lines]
    for name in ("[keyframes]", "[encode]", "[decode]", "[trajectory]"):
        assert stages.count(name) == 1, stages
    # --verbose prints the counts report.json holds, under the same names
    printed = dict(item.split("=") for line in lines for item in line.split()[2:])
    report = json.loads((loud / "report.json").read_text())
    assert set(printed) == set(report) - {"robot"}, (printed, report)
    assert all(int(printed[k]) == report[k] for k in printed), (printed, report)
    assert sorted(os.listdir(loud)) == sorted(os.listdir(quiet))
    for name in os.listdir(quiet):
        assert (loud / name).read_bytes() == (quiet / name).read_bytes(), name


@pytest.mark.parametrize("argv", [
    ["pipeline", "{clip}", "--robot", "frontal_7dof", "--columns", "split"],
    ["pipeline", "{clip}"],
    ["pipeline", "{clip}", "--robot", "frontal_7dof", "--dict", "{tmp}/nope.json"],
    ["pipeline", "{clip}", "--robot", "frontal_7dof", "--traj-rate", "-1"],
    ["pipeline", "{static}", "--robot", "frontal_7dof"],
], ids=["split-columns-on-arm-robot", "no-robot", "missing-dict", "traj-rate-negative", "static-no-force-final"])
def test_failed_pipeline_writes_nothing(tmp_path, capsys, argv):
    clip = _synth(tmp_path)
    static = _synth(tmp_path, "static.json",
                    ["synth", "reach_sequence", "--pose", "place_low:2", "-o", str(tmp_path / "static.json")])
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([a.format(tmp=tmp_path, clip=clip, static=static) for a in argv] + ["-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert os.listdir(out) == []


@pytest.mark.parametrize("value,rc", [("1", 0), ("TRUE", 0), ("Yes", 0), ("0", 1), ("false", 1), ("NO", 1)])
def test_config_bool_values(tmp_path, value, rc):
    clip = _synth(tmp_path, "static.json",
                  ["synth", "reach_sequence", "--pose", "place_low:2", "-o", str(tmp_path / "static.json")])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"force_final_keyframe = {value}\n")
    # a static clip has key frames only when the final frame is forced
    assert main(["--config", str(cfg), "encode", clip, "-o", str(tmp_path / "score.json")]) == rc


def test_decode_single_pose_score(tmp_path):
    clip = _synth(tmp_path, "static.json",
                  ["synth", "reach_sequence", "--pose", "place_low:2", "-o", str(tmp_path / "static.json")])
    score_path = str(tmp_path / "score.json")
    assert main(["encode", clip, "--force-final-keyframe", "-o", score_path]) == 0
    traj_path = str(tmp_path / "traj.csv")
    assert main(["decode", score_path, "--robot", "lab_9dof", "-o", traj_path]) == 0
    lines = open(traj_path).read().strip().split("\n")
    assert len(lines) == 2  # header + the single decoded pose
    # a one-cell score on a robot that maps its column: the one pose, at the cell's end
    assert main(["decode", os.path.join(DATA, "golden_minimal_score.json"), "--robot",
                 os.path.join(DATA, "partial_frontal.json"), "-o", traj_path]) == 0
    lines = open(traj_path).read().splitlines()
    assert len(lines) == 2 and lines[1].startswith("1.500000,"), lines


def test_decode_score_without_cells_writes_the_header(tmp_path):
    columns = ", ".join(f'{{"cells": [], "name": "{name}"}}' for name in ("Head", "LeftArm", "RightArm"))
    (tmp_path / "empty.json").write_text('{"columns": [%s], "meta": {}, "total_duration": 1.0}' % columns)
    assert main(["decode", str(tmp_path / "empty.json"), "--robot", "frontal_7dof", "-o", str(tmp_path / "t.csv")]) == 0
    joints = sorted(cli.robot_mod.load_robot("frontal_7dof").joint_names())
    assert (tmp_path / "t.csv").read_text() == "t," + ",".join(joints) + "\n"


def test_config_traj_rate(tmp_path):
    clip = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("traj_rate = 50\nrobot = frontal_7dof\n")
    outdir = tmp_path / "out"
    assert main(["--config", str(cfg), "pipeline", clip, "-o", str(outdir)]) == 0
    rows = (outdir / "trajectory.csv").read_text().strip().split("\n")[1:]
    times = [float(r.split(",")[0]) for r in rows]
    assert times[1] - times[0] == pytest.approx(0.02, abs=1e-9)


@pytest.mark.parametrize("config,flags,step", [("", [], 0.01), ("rate = 30\n", [], 0.01),
                                               ("traj_rate = 50\n", [], 0.02),
                                               ("traj_rate = 50\n", ["--rate", "25"], 0.04)],
                         ids=["no-config", "config-rate", "config-traj-rate", "flag-over-config-traj-rate"])
def test_config_rate_is_not_the_decode_rate(tmp_path, config, flags, step):
    # rate is the skeleton rate; only traj_rate (or --rate, which wins) sets decode's rate
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    golden = os.path.join(DATA, "golden_frontal_score.json")
    out = tmp_path / "t.csv"
    assert main(["--config", str(cfg), "decode", golden, "--robot", "frontal_7dof", *flags, "-o", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    times = [float(r.split(",")[0]) for r in rows[:2]]
    assert times[1] - times[0] == pytest.approx(step, abs=1e-9)


def test_settings_are_the_documented_config_keys():
    assert set(cli.SETTINGS) == {"sigma", "prominence", "min_sep", "merge_window", "columns", "interp",
                                 "rate", "traj_rate", "tau", "robot", "dict", "force_final_keyframe", "move_seconds"}


@pytest.mark.parametrize("key", list(cli.SETTINGS))
def test_setting_resolves_as_flag_then_config_then_default(tmp_path, key):
    kind, default, _ = cli.SETTINGS[key]
    command = {"move_seconds": ["synth", "reach_sequence"],
               "tau": ["dict", "build", "c.json"]}.get(key, ["pipeline", "c.json"])
    flag = "--" + key.replace("_", "-")
    # a config text and its value; a config text that the flag's arguments override, and the flag's value
    if kind is float:
        config, value, overridden, flag_args, flag_value = "0.375", 0.375, "0.375", [flag, "0.625"], 0.625
    elif kind is bool:  # the flag can only set True, so it overrides a config line that sets False
        config, value, overridden, flag_args, flag_value = "yes", True, "no", [flag], True
    elif kind is str:
        config, value, overridden, flag_args, flag_value = "a.json", "a.json", "a.json", [flag, "b.json"], "b.json"
    else:
        config, value, overridden, flag_args, flag_value = kind[-1], kind[-1], kind[-1], [flag, kind[0]], kind[0]

    def resolve(config, flags=()):
        (tmp_path / "run.cfg").write_text("" if config is None else f"{key} = {config}\n")
        args = cli.build_parser().parse_args([*command, "-o", "out", *flags])
        return cli._Run(args, cli._read_config(str(tmp_path / "run.cfg"))).get(key)

    assert resolve(None) == default
    assert resolve(config) == value != default
    assert resolve(overridden, flag_args) == flag_value != resolve(overridden)


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse 3.13 writes a flag's metavar once: -o, --output OUTPUT")
def test_usage_and_argument_errors_are_pinned(monkeypatch, capsys):
    # each subcommand's parser is built when it first parses; --help of
    # every command and the argument errors stay byte for byte what these
    # argparse versions print for parsers built up front (80 columns)
    monkeypatch.setenv("COLUMNS", "80")
    with open(os.path.join(DATA, "cli_usage.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    for case in cases:
        with pytest.raises(SystemExit) as exc:
            main(case["argv"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == (case["status"], case["stdout"], case["stderr"]), case["argv"]


def test_one_parser_parses_several_command_lines():
    parser = cli.build_parser()
    common = {"config": None, "verbose": False}
    decode = {**common, "command": "decode", "func": cli._cmd_decode, "robot": None, "interp": None, "dict": None}
    assert vars(parser.parse_args(["decode", "s.json", "--robot", "r", "--rate", "50", "-o", "a.csv"])) == {
        **decode, "score": "s.json", "robot": "r", "traj_rate": 50.0, "output": "a.csv"}
    # the flags of the first command line do not carry over
    assert vars(parser.parse_args(["decode", "t.json", "-o", "b.csv"])) == {
        **decode, "score": "t.json", "traj_rate": None, "output": "b.csv"}
    assert vars(parser.parse_args(["dict", "stats", "d.json"])) == {
        **common, "command": "dict", "dict_command": "stats", "func": cli._cmd_dict_stats, "dictionary": "d.json"}
    build = parser.parse_args(["dict", "build", "a.json", "b.json", "--tau", "5", "-o", "d.json"])
    assert (build.func, build.skeletons, build.tau, build.output) == (cli._cmd_dict_build, ["a.json", "b.json"], 5.0,
                                                                      "d.json")
    assert parser.parse_args(["dict", "build", "c.json", "-o", "e.json"]).tau is None


@pytest.mark.parametrize("case", ["score-columns", "robot-joints"])
def test_duplicate_names_are_reported_in_file_order(tmp_path, case):
    """Repeated column or joint names are named in the order they first
    appear, whatever the interpreter's string hash seed."""
    if case == "score-columns":
        names = ("RightArm", "Head", "LeftArm", "RightArm", "LeftArm", "Head")
        (tmp_path / "score.json").write_text(json.dumps(
            {"columns": [{"cells": [], "name": n} for n in names], "meta": {}, "total_duration": 1.0}))
        argv = ["decode", str(tmp_path / "score.json"), "--robot", "frontal_7dof", "-o", str(tmp_path / "t.csv")]
        expected = "; ".join(f"{n}: duplicate-column: column appears twice" for n in ("RightArm", "Head", "LeftArm"))
    else:
        (tmp_path / "robot.json").write_text(_DUPLICATE_JOINT_ROBOT)
        argv = ["roundtrip", os.path.join(DATA, "golden_frontal_score.json"), "--robot", str(tmp_path / "robot.json")]
        expected = _DUPLICATE_JOINT_ERROR
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "labanmotion.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (1, f"error: {expected}\n"), seed


def test_a_closed_stdout_ends_the_command_quietly(tmp_path):
    """A reader that closes stdout after the first line, as ``| head -1``
    does, is no input fault: the command exits 0 with nothing on stderr. The
    listing is several times what a pipe holds, so the command is still
    writing when the pipe closes."""
    mdict = trajectory.MotionDictionary()
    path = KeyPoses([0.0, 1.0], ["j"], [[0.0], [1.0]])
    for a in range(26):
        for b in range(26):
            for c in range(3):
                key = trajectory.dict_key(("Head", "LeftArm", "RightArm"), [a, b, c], [b, a, c])
                trajectory.dict_update(mdict, key, path)
    trajectory.save_dictionary(mdict, str(tmp_path / "d.json"))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "labanmotion.cli", "dict", "stats", str(tmp_path / "d.json")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (first, proc.wait(timeout=120), err) == (b"tau: 10.0\n", 0, b"")


@pytest.mark.parametrize("argv", [
    ["encode", "{tmp}/nope.json", "-o", "{tmp}/score.json"],
    ["synth", "reach_sequence", "--pose", "place_low:2", "-o", "{tmp}/nodir/x.json"],
    ["synth", "reach_sequence", "--pose", "place_low:2", "-o", "{tmp}"],
    ["decode", "{tmp}/nope.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"],
    ["decode", "{golden}", "--robot", "{tmp}/nope_robot.json", "-o", "{tmp}/t.csv"],
    ["decode", "{golden}", "--robot", "frontal_7dof", "-o", "{tmp}/nodir/t.csv"],
    ["--config", "{tmp}/nope.cfg", "synth", "reach_sequence", "--pose", "place_low:2", "-o", "{tmp}/x.json"],
    ["pipeline", "{tmp}/nope.json", "--robot", "frontal_7dof", "-o", "{tmp}/taken"],
], ids=["missing-input", "missing-output-dir", "output-is-dir", "missing-score",
        "missing-robot", "unwritable-csv", "missing-config", "output-dir-is-file"])
def test_unusable_paths_exit_1(tmp_path, capsys, argv):
    (tmp_path / "taken").write_text("")
    golden = os.path.join(DATA, "golden_frontal_score.json")
    rc = main([a.format(tmp=tmp_path, golden=golden) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device whose writes fail")
def test_a_failed_csv_write_exits_1(capsys):
    # the CSV is written block by block as it is formatted: a write that
    # fails part way is a user error like a path that cannot be opened
    rc = main(["decode", os.path.join(DATA, "golden_frontal_score.json"), "--robot", "frontal_7dof",
               "-o", "/dev/full"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "internal error" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout to name the standard output")
def test_a_csv_written_to_a_pipe_is_the_csv_written_to_a_file(tmp_path):
    """decode streams the CSV into its output block by block, writing each
    block once and never seeking: a pipe gets the bytes a regular file gets.
    At 2000 Hz the golden score's CSV is 4,201 rows of 8 values, three blocks
    of up to 2,048 rows and more than a pipe's 64 KiB buffer."""
    golden = os.path.join(DATA, "golden_frontal_score.json")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for rate in ("100", "2000"):
        argv = ["decode", golden, "--robot", "frontal_7dof", "--rate", rate, "-o"]
        assert main([*argv, str(tmp_path / "file.csv")]) == 0
        proc = subprocess.run([sys.executable, "-m", "labanmotion.cli", *argv, "/dev/stdout"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b""), (rate, proc.stderr)
        assert proc.stdout == (tmp_path / "file.csv").read_bytes(), rate
    assert proc.stdout.count(b"\n") > 2 * 2048 + 1 and len(proc.stdout) > 65536


def _score_text(duration: str, total: str, start: str = "0.0") -> str:
    """A frontal_7dof score whose RightArm cell has the given duration and start."""
    columns = [
        '{"cells": [{"dir": "Forward", "duration": %s, "level": "Middle", "start": %s}], "name": "%s"}'
        % (((duration, start) if name == "RightArm" else ("1.0", "0.0")) + (name,))
        for name in ("Head", "LeftArm", "RightArm")
    ]
    return '{"columns": [%s], "meta": {}, "total_duration": %s}' % (", ".join(columns), total)


@pytest.mark.parametrize("argv,config,needle", [
    pytest.param(["decode", "{golden}", "--robot", "frontal_7dof", "--rate", "0", "-o", "{tmp}/t.csv"], None, "rate",
                 id="decode-rate-0"),
    pytest.param(["decode", "{golden}", "--robot", "frontal_7dof", "--rate", "nan", "-o", "{tmp}/t.csv"], None, "rate",
                 id="decode-rate-nan"),
    pytest.param(["decode", "{golden}", "--robot", "frontal_7dof", "--rate=-inf", "-o", "{tmp}/t.csv"], None, "rate",
                 id="decode-rate-minus-inf"),
    pytest.param(["pipeline", "{clip}", "--robot", "frontal_7dof", "--traj-rate", "-1", "-o", "{tmp}/out"], None,
                 "rate", id="pipeline-traj-rate-negative"),
    pytest.param(["decode", "{tmp}/nan.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None, "non-finite",
                 id="score-nan-duration"),
    pytest.param(["decode", "{tmp}/inf.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None, "non-finite",
                 id="score-infinite-total"),
    pytest.param(["--config", "{tmp}/run.cfg", "keyframes", "{clip}", "-o", "{tmp}/kf.json"], "sigma = abc\n",
                 "run.cfg:1: sigma", id="config-sigma-not-a-number"),
    pytest.param(["--config", "{tmp}/run.cfg", "keyframes", "{clip}", "-o", "{tmp}/kf.json"], "\nrate = nan\n",
                 "run.cfg:2: rate", id="config-rate-nan"),
    pytest.param(["--config", "{tmp}/run.cfg", "decode", "{golden}", "-o", "{tmp}/t.csv"],
                 "robot = frontal_7dof\ntraj_rate = 0\n", "rate", id="config-rate-0"),
    pytest.param(["decode", "{golden}", "--robot", "frontal_7dof", "--rate", "1e9", "-o", "{tmp}/t.csv"], None,
                 "samples", id="decode-rate-1e9"),
    pytest.param(["--config", "{tmp}/run.cfg", "decode", "{golden}", "-o", "{tmp}/t.csv"],
                 "robot = frontal_7dof\ninterp = quintic\n", "run.cfg:2: interp", id="config-interp-unknown"),
    pytest.param(["--config", "{tmp}/run.cfg", "encode", "{clip}", "-o", "{tmp}/score.json"], "columns = legs\n",
                 "run.cfg:1: columns", id="config-columns-unknown"),
    # the removed peak mode is refused, not ignored (its flag: tests/data/cli_usage.json)
    pytest.param(["--config", "{tmp}/run.cfg", "keyframes", "{clip}", "-o", "{tmp}/kf.json"], "peak_mode = max\n",
                 "run.cfg:1: unknown config key 'peak_mode'", id="config-peak-mode-unknown"),
    pytest.param(["synth", "reach_sequence", "--pose", "place_low:0.5", "--pose", "forward_middle:x", "-o",
                 "{tmp}/x.json"], None, "dwell of forward_middle", id="synth-dwell-not-a-number"),
    pytest.param(["synth", "reach_sequence", "--pose", "place_low:2", "--rate", "nan", "-o", "{tmp}/x.json"], None,
                 "rate", id="synth-rate-nan"),
    pytest.param(["synth", "reach_sequence", "--pose", "place_low:nan", "-o", "{tmp}/x.json"], None,
                 "dwell of place_low", id="synth-dwell-nan"),
    pytest.param(["synth", "reach_sequence", "--pose", "place_low:0.5", "--pose", "left_high:0.5", "--move-seconds",
                 "nan", "-o", "{tmp}/x.json"], None, "move_seconds", id="synth-move-seconds-nan"),
    pytest.param(["keyframes", "{clip}", "--sigma=-1", "-o", "{tmp}/kf.json"], None, "sigma",
                 id="keyframes-sigma-negative"),
    pytest.param(["keyframes", "{clip}", "--sigma", "nan", "-o", "{tmp}/kf.json"], None, "sigma",
                 id="keyframes-sigma-nan"),
    pytest.param(["keyframes", "{clip}", "--prominence", "2", "-o", "{tmp}/kf.json"], None, "prominence",
                 id="keyframes-prominence-2"),
    pytest.param(["keyframes", "{clip}", "--rate", "0", "-o", "{tmp}/kf.json"], None, "rate", id="keyframes-rate-0"),
    pytest.param(["keyframes", "{clip}", "--rate", "nan", "-o", "{tmp}/kf.json"], None, "rate",
                 id="keyframes-rate-nan"),
    pytest.param(["keyframes", "{clip}", "--min-sep", "nan", "-o", "{tmp}/kf.json"], None, "min_separation",
                 id="keyframes-min-sep-nan"),
    pytest.param(["keyframes", "{clip}", "--merge-window", "inf", "-o", "{tmp}/kf.json"], None, "merge_window",
                 id="keyframes-merge-window-inf"),
    pytest.param(["dict", "build", "{clip}", "--robot", "frontal_7dof", "--tau", "0", "-o", "{tmp}/d.json"], None,
                 "tau", id="dict-tau-0"),
    pytest.param(["dict", "build", "{clip}", "--robot", "frontal_7dof", "--tau", "nan", "-o", "{tmp}/d.json"], None,
                 "tau", id="dict-tau-nan"),
    pytest.param(["keyframes", "{tmp}/typed.json", "-o", "{tmp}/kf.json"], None, "frame 3: joint WristRight",
                 id="skeleton-string-coordinate"),
    pytest.param(["--config", "{tmp}/run.cfg", "encode", "{clip}", "-o", "{tmp}/score.json"],
                 "force_final_keyframe = maybe\n", "run.cfg:1: force_final_keyframe", id="config-bool-unknown"),
    # both grids would far exceed the sample cap, which is checked before any allocation
    pytest.param(["keyframes", "{clip}", "--rate", "1e9", "-o", "{tmp}/kf.json"], None, "samples",
                 id="keyframes-rate-1e9"),
    pytest.param(["synth", "reach_sequence", "--pose", "place_low:2", "--rate", "1e9", "-o", "{tmp}/x.json"], None,
                 "samples", id="synth-rate-1e9"),
    # so would the smoothing kernel
    pytest.param(["keyframes", "{clip}", "--sigma", "1e9", "-o", "{tmp}/kf.json"], None, "samples",
                 id="keyframes-sigma-1e9"),
    pytest.param(["keyframes", "{clip}", "--sigma", "1e300", "-o", "{tmp}/kf.json"], None, "samples",
                 id="keyframes-sigma-1e300"),
    # 2 s^2 underflows to 0: the kernel would be 0/0
    pytest.param(["keyframes", "{clip}", "--sigma", "1e-300", "-o", "{tmp}/kf.json"], None, "sigma",
                 id="keyframes-sigma-1e-300"),
    # integers beyond the float range are non-finite numbers; bools are not numbers
    pytest.param(["decode", "{tmp}/big-total.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None, "non-finite",
                 id="score-401-digit-total"),
    pytest.param(["decode", "{tmp}/big-start.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None, "non-finite",
                 id="score-401-digit-start"),
    pytest.param(["decode", "{tmp}/false-start.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None,
                 "$.columns[2].cells[0].start", id="score-false-start"),
    pytest.param(["decode", "{tmp}/true-duration.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None,
                 "$.columns[2].cells[0].duration", id="score-true-duration"),
    pytest.param(["keyframes", "{tmp}/big-t.json", "-o", "{tmp}/kf.json"], None, "frames[3].t",
                 id="skeleton-401-digit-t"),
    # finite coordinates whose velocity or its square overflows
    pytest.param(["keyframes", "{tmp}/big-Head.json", "-o", "{tmp}/kf.json"], None, "energy of Head",
                 id="skeleton-head-1e308"),
    pytest.param(["pipeline", "{tmp}/big-WristRight.json", "--robot", "frontal_7dof", "-o", "{tmp}/out"], None,
                 "energy of WristRight", id="skeleton-wrist-1e308"),
    # one key pose is written as it is, but the rate is still checked
    pytest.param(["decode", os.path.join(DATA, "golden_minimal_score.json"),
                  "--robot", os.path.join(DATA, "partial_frontal.json"), "--rate", "0", "-o", "{tmp}/t.csv"], None,
                 "trajectory rate", id="decode-one-pose-rate-0"),
    # an empty value names no file: the flag's fails to open, the config line's is refused
    pytest.param(["decode", "{golden}", "--robot", "frontal_7dof", "--dict", "", "-o", "{tmp}/t.csv"], None,
                 "No such file or directory: ''", id="decode-dict-empty"),
    pytest.param(["--config", "{tmp}/run.cfg", "decode", "{golden}", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"],
                 "dict =\n", "run.cfg:1: dict must not be empty", id="config-dict-empty"),
    pytest.param(["--config", "{tmp}/run.cfg", "decode", "{golden}", "-o", "{tmp}/t.csv"], "interp = cubic\nrobot =\n",
                 "run.cfg:2: robot must not be empty", id="config-robot-empty"),
    pytest.param(["--config", "", "decode", "{golden}", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None,
                 "No such file or directory: ''", id="config-path-empty"),
    # the removed patterns and their flags are usage errors, not ignored
    pytest.param(["synth", "static", "--pose", "forward_high:1", "--hold", "3", "--from-pose", "left_low", "-o",
                 "{tmp}/x.json"], None, "invalid choice: 'static'", id="synth-static-pose-hold-from-pose"),
    pytest.param(["synth", "static", "--part", "left_arm", "--to-pose", "left_low", "-o", "{tmp}/x.json"], None,
                 "invalid choice: 'static'", id="synth-static-part-to-pose"),
    pytest.param(["synth", "move_hold_move", "--from-pose", "place_low", "--to-pose", "left_high", "--duration", "2",
                 "-o", "{tmp}/x.json"], None, "invalid choice: 'move_hold_move'", id="synth-move-hold-move-duration"),
    pytest.param(["synth", "move_hold_move", "--from-pose", "place_low", "--to-pose", "left_high", "--pose",
                 "left_low:1", "-o", "{tmp}/x.json"], None, "invalid choice: 'move_hold_move'",
                 id="synth-move-hold-move-pose"),
    pytest.param(["synth", "reach_sequence", "--pose", "place_low:0.5", "--pose", "left_high:0.5", "--hold", "1", "-o",
                 "{tmp}/x.json"], None, "unrecognized arguments: --hold 1", id="synth-reach-sequence-hold"),
    pytest.param(["synth", "reach_sequence", "--pose", "place_low:0.5", "--pose", "left_high:0.5", "--duration", "2",
                 "--from-pose", "left_low", "--to-pose", "left_high", "-o", "{tmp}/x.json"], None,
                 "unrecognized arguments: --duration 2 --from-pose left_low --to-pose left_high",
                 id="synth-reach-sequence-duration-from-to"),
    # a stop needs its dwell: NAME alone is not NAME:DWELL
    pytest.param(["synth", "reach_sequence", "--pose", "forward_high", "-o", "{tmp}/x.json"], None,
                 "dwell of forward_high must be a finite number > 0, got ''", id="synth-dwell-missing"),
    pytest.param(["synth", "reach_sequence", "-o", "{tmp}/x.json"], None, "reach_sequence needs at least one pose",
                 id="synth-no-pose"),
])
def test_bad_values_exit_1(tmp_path, capsys, argv, config, needle):
    clip = _synth(tmp_path)
    golden = os.path.join(DATA, "golden_frontal_score.json")
    (tmp_path / "nan.json").write_text(_score_text("NaN", "2.0"))
    (tmp_path / "inf.json").write_text(_score_text("1.0", "Infinity"))
    typed = json.loads(open(clip).read())
    typed["frames"][3]["joints"]["WristRight"][2] = "0.2"
    (tmp_path / "typed.json").write_text(json.dumps(typed))
    big = "1" + "0" * 400
    (tmp_path / "big-total.json").write_text(_score_text("1.0", big))
    (tmp_path / "big-start.json").write_text(_score_text("1.0", "2.0", start=big))
    (tmp_path / "false-start.json").write_text(_score_text("1.0", "2.0", start="false"))
    (tmp_path / "true-duration.json").write_text(_score_text("true", "2.0"))
    timed = json.loads(open(clip).read())
    timed["frames"][3]["t"] = int(big)
    (tmp_path / "big-t.json").write_text(json.dumps(timed))
    for joint in ("Head", "WristRight"):
        huge = json.loads(open(clip).read())
        huge["frames"][3]["joints"][joint][0] = 1e308
        (tmp_path / f"big-{joint}.json").write_text(json.dumps(huge))
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    capsys.readouterr()
    try:
        rc = main([a.format(tmp=tmp_path, golden=golden, clip=clip) for a in argv])
    except SystemExit as exc:  # a usage error: argparse's usage lines, then its one error line
        rc = exc.code
        *usage, last = capsys.readouterr().err.splitlines(keepends=True)
        assert usage[0].startswith("usage: labanmotion ") and re.match(r"labanmotion( synth)?: error: ", last), usage
        err = last[last.index("error: "):]
    else:
        err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


@pytest.mark.parametrize("hint", [10**400, True, -30, "30"], ids=["401-digit", "true", "negative", "string"])
def test_unusable_sample_rate_hint_is_ignored(tmp_path, hint):
    obj = json.loads(open(_synth(tmp_path)).read())
    del obj["sample_rate_hint"]
    (tmp_path / "plain.json").write_text(json.dumps(obj))
    obj["sample_rate_hint"] = hint
    (tmp_path / "hinted.json").write_text(json.dumps(obj))
    for name in ("plain", "hinted"):
        assert main(["encode", str(tmp_path / f"{name}.json"), "-o", str(tmp_path / f"{name}.score.json")]) == 0
    assert (tmp_path / "hinted.score.json").read_bytes() == (tmp_path / "plain.score.json").read_bytes()


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


# accepted flag values, most at the edges of their ranges
_EDGES = {
    "--rate": ["10", "30", "240"],
    "--sigma": ["1e-3", "0.1", "2"],
    "--prominence": ["0", "0.1", "1"],
    "--min-sep": ["0", "0.25", "1e308"],
    "--merge-window": ["0", "0.2", "1e308"],
}


def test_written_json_is_strict(tmp_path, capsys):
    # every JSON file any command writes loads without NaN or Infinity,
    # whatever accepted flag values it ran with
    rng = random.Random(4)
    clip = _synth(tmp_path)
    succeeded = {}
    for i in range(4):
        out = tmp_path / f"run{i}"
        out.mkdir()
        flags = [x for flag, values in _EDGES.items() for x in (flag, rng.choice(values))]
        flags += ["--force-final-keyframe"] * rng.randint(0, 1)
        dwell, move = rng.choice(["1e-3", "0.5", "3"]), rng.choice(["0", "1e-3", "0.4"])
        runs = [
            ["synth", "reach_sequence", "--pose", f"place_low:{dwell}", "--pose", "right_high:0.5",
             "--move-seconds", move, "--rate", rng.choice(_EDGES["--rate"]), "-o", str(out / "synth.json")],
            ["keyframes", clip, *flags, "-o", str(out / "kf.json")],
            ["encode", clip, *flags, "-o", str(out / "score.json")],
            ["pipeline", clip, "--robot", rng.choice(["frontal_7dof", "lab_9dof"]),
             "--traj-rate", rng.choice(["1e-300", "1", "1e3"]), *flags, "-o", str(out / "pipeline")],
            ["dict", "build", clip, "--robot", "frontal_7dof", "--tau", rng.choice(["1e-300", "10", "1e308"]),
             *flags, "-o", str(out / "dict.json")],
        ]
        for argv in runs:
            rc = main(argv)
            assert rc in (0, 1), (argv, capsys.readouterr().err)
            succeeded[argv[0]] = succeeded.get(argv[0], 0) + (rc == 0)
    assert all(succeeded.values()), succeeded
    written = [os.path.join(d, f) for d, _, files in os.walk(tmp_path) for f in files if f.endswith(".json")]
    assert len(written) > 2 * len(succeeded)
    for path in written:
        json.loads(open(path).read(), parse_constant=_refuse_constant)


_NAN_LIMIT_ROBOT = """
{"name": "r", "chains": [{"name": "right_arm", "segments": [
  {"yaw_joint": "y", "pitch_joint": "p", "yaw_limits": [NaN, 90], "pitch_limits": [-90, 90]}]}],
 "column_map": {"RightArm": ["right_arm/0"]}}
"""


# a segment whose roll joint is a number, not a joint name
_ROLL_JOINT_ROBOT = """
{"name": "r", "chains": [{"name": "right_arm", "segments": [
  {"yaw_joint": "y", "pitch_joint": "p", "yaw_limits": [-90, 90], "pitch_limits": [-90, 90],
   "roll_joint": 5, "roll_limits": [-10, 10]}]}],
 "column_map": {"RightArm": ["right_arm/0"]}}
"""

_FRONTAL = os.path.join(os.path.dirname(cli.__file__), "robots", "frontal_7dof.json")


def _frontal_with_column_map(column_map: dict) -> str:
    """The bundled frontal_7dof description with another column map."""
    with open(_FRONTAL) as fh:
        obj = json.load(fh)
    obj["column_map"] = column_map
    return json.dumps(obj)


# frontal_7dof with its joints r_shoulder_yaw, r_shoulder_pitch, r_wrist_roll,
# l_shoulder_yaw, l_shoulder_pitch, head_yaw, head_pitch renamed so that
# r_wrist_roll and then head_pitch appear twice
with open(_FRONTAL) as _fh:
    _FRONTAL_TEXT = _fh.read()
_DUPLICATE_JOINT_ROBOT = (_FRONTAL_TEXT.replace('"l_shoulder_yaw"', '"head_pitch"')
                          .replace('"head_yaw"', '"r_wrist_roll"'))
_DUPLICATE_JOINT_ERROR = "joint name r_wrist_roll used twice; joint name head_pitch used twice"
# a joint name heads a trajectory CSV column, after the time column t
_NOT_A_CSV_HEADER = "cannot head a trajectory CSV column"


@pytest.mark.parametrize("text,needle", [
    ('{"name": "r", "chains": {"name": "c"}, "column_map": {}}', "$.chains: expected a list"),
    ('{"name": "r", "chains": [1], "column_map": {}}', "$.chains[0]: expected an object"),
    ('{"name": "r", "chains": [{"name": "c", "segments": "yaw"}], "column_map": {}}',
     "$.chains[0].segments: expected a list"),
    ('{"name": "r", "chains": [{"name": "c", "segments": [[]]}], "column_map": {}}',
     "$.chains[0].segments[0]: expected an object"),
    ('{"name": "r", "chains": [], "column_map": {}, "fixed_joints": 3}', "$.fixed_joints: expected a list"),
    ('{"name": "r", "chains": [], "column_map": {}, "fixed_joints": ["body_yaw"]}',
     "$.fixed_joints[0]: expected an object"),
    (_ROLL_JOINT_ROBOT, "$.chains[0].segments[0].roll_joint: expected a joint name"),
    (_ROLL_JOINT_ROBOT.replace('"roll_joint": 5', '"roll_joint": null'),
     "$.chains[0].segments[0].roll_joint: expected a joint name"),
    (_ROLL_JOINT_ROBOT.replace('"roll_joint": 5', '"roll_joint": ""'),
     "$.chains[0].segments[0].roll_joint: empty joint name"),
    (_ROLL_JOINT_ROBOT.replace('"roll_joint": 5', '"roll_joint": "r"').replace('"yaw_joint": "y"', '"yaw_joint": ""'),
     "$.chains[0].segments[0].yaw_joint: empty joint name"),
    ('{"name": "r", "chains": [], "column_map": {}, "fixed_joints": [{"name": "", "limits": [-90, 90]}]}',
     "$.fixed_joints[0].name: empty joint name"),
    (_NAN_LIMIT_ROBOT, "yaw_limits: bad limits [nan, 90]"),
    (_NAN_LIMIT_ROBOT.replace("NaN", "-1" + "0" * 400), "yaw_limits: bad limits [-1000"),
    (_NAN_LIMIT_ROBOT.replace("NaN", "true"), "yaw_limits: expected [lo, hi] degrees"),
    (_frontal_with_column_map({"LeftArm": ["left_arm/0"], "RightArms": ["right_arm/0"], "Head": ["head/0"]}),
     "column_map: RightArms: unknown-column: not a known column name"),
    (_frontal_with_column_map({"LeftArm": ["left_arm/0"], "RightArm": ["right_arm/0"],
                               "RightForearm": ["right_arm/0"], "Head": ["head/0"]}),
     "column_map: RightArm: arm-exclusive: RightArm cannot coexist with RightForearm"),
    (_DUPLICATE_JOINT_ROBOT, _DUPLICATE_JOINT_ERROR),
    (_frontal_with_column_map({"LeftArm": ["left_arm/0"], "RightArm": ["right_arm/0", "right_arm/0"],
                               "Head": ["head/0"]}), "column RightArm lists a segment twice"),
    (_frontal_with_column_map({column: ["right_arm/0"] for column in
                               ("LeftUpperArm", "LeftForearm", "RightUpperArm", "RightForearm")} | {"Head": ["head/0"]}),
     "segment right_arm/0 fed by 4 columns (a segment takes one)"),
    (_frontal_with_column_map({"LeftArm": ["left_arm/0"], "RightUpperArm": ["right_arm/0"],
                               "RightForearm": ["right_arm/0"], "Head": ["head/0"]}),
     "segment right_arm/0 fed by 2 columns (a segment takes one)"),
    (_FRONTAL_TEXT.replace('"r_shoulder_yaw"', '"r_shoulder,yaw"'),
     f"$.chains[0].segments[0].yaw_joint: joint name 'r_shoulder,yaw' {_NOT_A_CSV_HEADER}"),
    (_FRONTAL_TEXT.replace('"l_shoulder_pitch"', '"l_shoulder\\"pitch"'),
     f"$.chains[1].segments[0].pitch_joint: joint name 'l_shoulder\"pitch' {_NOT_A_CSV_HEADER}"),
    (_FRONTAL_TEXT.replace('"r_wrist_roll"', '"r_wrist\\rroll"'),
     f"$.chains[0].segments[0].roll_joint: joint name 'r_wrist\\rroll' {_NOT_A_CSV_HEADER}"),
    (_FRONTAL_TEXT.replace('"head_yaw"', '"head\\nyaw"'),
     f"$.chains[2].segments[0].yaw_joint: joint name 'head\\nyaw' {_NOT_A_CSV_HEADER}"),
    (_FRONTAL_TEXT.replace('"head_pitch"', '"t"'),
     f"$.chains[2].segments[0].pitch_joint: joint name 't' {_NOT_A_CSV_HEADER}"),
    ('{"name": "r", "chains": [], "column_map": {}, "fixed_joints": [{"name": "body,yaw", "limits": [-90, 90]}]}',
     f"$.fixed_joints[0].name: joint name 'body,yaw' {_NOT_A_CSV_HEADER}"),
], ids=["chains-not-list", "chain-not-object", "segments-not-list", "segment-not-object",
        "fixed-joints-not-list", "fixed-joint-not-object", "roll-joint-not-string", "roll-joint-null",
        "roll-joint-empty", "yaw-joint-empty", "fixed-joint-name-empty", "nan-limit", "limit-beyond-float-range",
        "bool-limit", "unknown-column", "arm-with-split-column", "joint-names-repeated", "segment-listed-twice",
        "segment-fed-by-4-columns", "segment-fed-by-2-columns", "yaw-joint-comma", "pitch-joint-quote",
        "roll-joint-cr", "yaw-joint-lf", "pitch-joint-t", "fixed-joint-comma"])
def test_bad_robot_exit_1(tmp_path, capsys, text, needle):
    """Every command that loads a robot rejects the description at load."""
    robot = str(tmp_path / "robot.json")
    (tmp_path / "robot.json").write_text(text)
    golden = os.path.join(DATA, "golden_frontal_score.json")
    clip = _synth(tmp_path)
    capsys.readouterr()
    for argv in (["decode", golden, "--robot", robot, "-o", str(tmp_path / "t.csv")],
                 ["roundtrip", golden, "--robot", robot],
                 ["dict", "build", clip, "--robot", robot, "-o", str(tmp_path / "dict.json")],
                 ["pipeline", clip, "--robot", robot, "-o", str(tmp_path / "out")]):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err, err
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "dict.json").exists()
    assert not os.listdir(tmp_path / "out")


def test_skeleton_whose_spine_overflows_exits_1(tmp_path, capsys):
    """Finite coordinates whose spine vector overflows give a NaN body frame,
    which every length test lets through; each command that encodes refuses
    the clip with one error line and writes nothing."""
    clip = _synth(tmp_path, pattern=["synth", "reach_sequence", "--part", "right_arm", "--pose", "place_low:0.6",
                                     "--pose", "forward_middle:0.6", "--pose", "right_high:0.6",
                                     "-o", str(tmp_path / "clip.json")])
    obj = json.loads(open(clip).read())
    for frame in obj["frames"]:
        frame["joints"]["SpineBase"] = [0.0, 0.0, -1.7e308]
        frame["joints"]["SpineShoulder"] = [0.0, 0.0, 1.7e308]
    (tmp_path / "clip.json").write_text(json.dumps(obj))
    capsys.readouterr()
    # dict build reads several clips, so its error names the clip
    for argv, where in ((["encode", clip, "-o", str(tmp_path / "score.json")], ""),
                        (["pipeline", clip, "--robot", "frontal_7dof", "-o", str(tmp_path / "out")], ""),
                        (["dict", "build", clip, "--robot", "frontal_7dof", "-o", str(tmp_path / "dict.json")],
                         f"{clip}: ")):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: {where}non-finite body frame\n"
    assert not (tmp_path / "score.json").exists() and not (tmp_path / "dict.json").exists()
    assert not os.listdir(tmp_path / "out")


def test_keyframes_read_any_layout_and_name_a_cut_off_or_typed_clip(tmp_path, capsys):
    """A clip is read frame by frame in any layout: a re-indented copy with the
    root keys and each frame's keys in another order gives the canonical
    clip's key frames byte for byte. A copy cut off part way exits 1 with one
    error: line naming a line and column; one with a string coordinate, with
    one naming its frame and joint."""
    clip = _reach_clip(tmp_path)
    obj = json.loads(open(clip).read())
    frames = [{"joints": dict(reversed(f["joints"].items())), "t": f["t"]} for f in obj["frames"]]
    relaid = json.dumps({"frames": frames, "sample_rate_hint": obj["sample_rate_hint"]}, indent=4)
    assert relaid != open(clip).read()
    frames[6]["joints"]["Head"][0] = str(frames[6]["joints"]["Head"][0])
    typed = json.dumps({"frames": frames, "sample_rate_hint": obj["sample_rate_hint"]}, indent=4)
    for name, text in (("relaid", relaid), ("cut", relaid[:5000]), ("typed", typed)):
        (tmp_path / f"{name}.json").write_text(text)
    capsys.readouterr()
    for name in ("clip", "relaid"):
        assert main(["keyframes", str(tmp_path / f"{name}.json"), "-o", str(tmp_path / f"{name}_kf.json")]) == 0
    assert (tmp_path / "relaid_kf.json").read_bytes() == (tmp_path / "clip_kf.json").read_bytes()
    assert capsys.readouterr().err == ""
    assert main(["keyframes", str(tmp_path / "cut.json"), "-o", str(tmp_path / "cut_kf.json")]) == 1
    assert re.fullmatch(r"error: .*line \d+, column \d+.*\n", capsys.readouterr().err)
    assert main(["keyframes", str(tmp_path / "typed.json"), "-o", str(tmp_path / "typed_kf.json")]) == 1
    assert capsys.readouterr().err == "error: frame 6: joint Head (bad coordinate triple)\n"
    assert not (tmp_path / "cut_kf.json").exists() and not (tmp_path / "typed_kf.json").exists()


def test_dict_build_encodes_each_key_frame_once(tmp_path, monkeypatch):
    clips = [
        _synth(tmp_path, "reach.json", [
            "synth", "reach_sequence", "--part", "right_arm", "--pose", "place_low:0.6",
            "--pose", "forward_middle:0.6", "--pose", "right_high:0.6", "--pose", "place_low:0.6",
            "-o", str(tmp_path / "reach.json"),
        ]),
        _synth(tmp_path, "move.json"),
    ]
    events = []
    observe, encode_poses = cli._Run.observe, encoder.encode_poses

    def counting_observe(run, path):
        seq, kfs = observe(run, path)
        events.append(("observe", len(kfs.merged)))
        return seq, kfs

    def counting_encode(positions, *args, **kwargs):
        events.append(("encode", len(positions)))
        return encode_poses(positions, *args, **kwargs)

    monkeypatch.setattr(cli._Run, "observe", counting_observe)
    monkeypatch.setattr(encoder, "encode_poses", counting_encode)
    assert main(["dict", "build", *clips, "--robot", "frontal_7dof", "-o", str(tmp_path / "d.json")]) == 0
    per_clip = []
    for kind, n in events:
        if kind == "observe":
            per_clip.append([n, 0])
        else:
            per_clip[-1][1] += n
    assert len(per_clip) == 2
    assert max(merged for merged, _ in per_clip) >= 4
    assert all(encodes == merged for merged, encodes in per_clip)


_REACH_POSES = ("place_low", "place_high", "forward_middle", "left_high", "right_low", "backward_low",
                "right_forward_high", "left_backward_middle")


@pytest.mark.parametrize("robot_name", ["frontal_7dof", "lab_9dof"])
def test_dict_build_matches_per_transition_reference(tmp_path, monkeypatch, robot_name):
    rng = np.random.default_rng(1212)
    clips = []
    for c in range(4):
        poses = [[str(p), float(rng.uniform(0.3, 0.8))] for p in rng.permutation(_REACH_POSES)[:5]]
        part = str(rng.choice(["right_arm", "left_arm", "head"]))
        seq = synth_motion({"pattern": "reach_sequence", "part": part, "poses": poses}, rate=30.0)
        if c % 2:
            seq = transform_sequence(seq, random_rotation(rng), rng.normal(size=3))
        clips.append(str(tmp_path / f"clip{c}.json"))
        save_sequence(seq, clips[-1])
    observed = []
    observe = cli._Run.observe

    def recording_observe(run, path):
        observed.append(observe(run, path))
        return observed[-1]

    monkeypatch.setattr(cli._Run, "observe", recording_observe)
    out = tmp_path / "dict.json"
    assert main(["dict", "build", *clips, "--robot", robot_name, "-o", str(out)]) == 0
    robot = load_robot(robot_name)
    columns = tuple(c for c in sorted(robot.column_map) if c in encoder.COLUMN_DISTAL)
    assert len(observed) == 4 and sum(len(kfs.merged) - 1 for _, kfs in observed) >= 20
    assert out.read_text() == dict_build_per_transition(observed, robot, columns)


def test_dict_decode_uses_the_dictionary_on_a_partly_mapped_robot(tmp_path):
    """A robot that maps one of a score's three columns: dict build keys
    hold that column only, and so do decode's lookups, which therefore hit."""
    robot = os.path.join(DATA, "partial_frontal.json")
    clips = [
        _synth(tmp_path, f"{part}.json", [
            "synth", "reach_sequence", "--part", part, "--pose", "place_low:0.6", "--pose", "forward_middle:0.6",
            "--pose", "right_high:0.6", "--pose", "place_low:0.6", "-o", str(tmp_path / f"{part}.json"),
        ])
        for part in ("right_arm", "left_arm")
    ]
    score = str(tmp_path / "score.json")
    assert main(["encode", clips[0], "-o", score]) == 0
    assert [col.name for col in load_score(score).columns] == ["LeftArm", "RightArm", "Head"]
    assert main(["dict", "build", *clips, "--robot", robot, "-o", str(tmp_path / "dict.json")]) == 0
    keys = list(json.loads((tmp_path / "dict.json").read_text())["entries"])
    assert keys and all(key.count("=") == 2 and key.count("RightArm=") == 2 for key in keys)
    for flags, out in (([], "plain.csv"), (["--dict", str(tmp_path / "dict.json")], "dict.csv")):
        assert main(["decode", score, "--robot", robot, *flags, "-o", str(tmp_path / out)]) == 0
    assert (tmp_path / "dict.csv").read_text() != (tmp_path / "plain.csv").read_text()


def _bad_dict_text(case: str) -> str:
    """A one-path dictionary file, broken as ``case`` says."""
    if case == "json":
        return '{"samples_per_path": 32,'
    if case == "not-object":
        return "[]"
    mdict = trajectory.MotionDictionary()
    key = state_key(
        {"RightArm": LabanSymbol(Direction.Place, Level.Low)},
        {"RightArm": LabanSymbol(Direction.Forward, Level.Middle)},
    )
    observed = KeyPoses([0.0, 1.0, 2.0], ("a", "b"), [[10.0 * t, -5.0 * t] for t in range(3)])
    trajectory.dict_update(mdict, key, observed)
    obj = json.loads(trajectory.serialize_dictionary(mdict))
    path = next(iter(obj["entries"].values()))[0]
    if case == "samples-per-path":
        obj["samples_per_path"] = 16
    elif case == "tau-string":
        obj["tau"] = "10"
    elif case == "tau-zero":
        obj["tau"] = 0
    elif case == "entries-list":
        obj["entries"] = []
    elif case == "bad-key":
        obj["entries"] = {"RightArm=Up.Middle->": [path]}
    elif case == "unsorted-key":
        key = "RightArm=Forward.High,LeftArm=Forward.Low->LeftArm=Forward.Low,RightArm=Forward.High"
        obj["entries"] = {key: [path]}
    elif case == "repeated-column-key":
        obj["entries"] = {"RightArm=Forward.High->RightArm=Forward.Low,RightArm=Forward.High": [path]}
    elif case == "misspelled-column-key":  # what dict build wrote, with RightArm misspelled
        obj["entries"] = {k.replace("RightArm=", "RightArms="): v for k, v in obj["entries"].items()}
    elif case == "place-middle-key":
        obj["entries"] = {"RightArm=Place.Middle->RightArm=Forward.Low": [path]}
    elif case == "no-arrow-key":
        obj["entries"] = {"RightArm=Forward.Middle": [path]}
    elif case == "empty-key":
        obj["entries"] = {"": [path]}
    elif case == "no-paths":
        obj["entries"] = {k: [] for k in obj["entries"]}
    elif case == "count-string":
        path["count"] = "1"
    elif case == "count-zero":
        path["count"] = 0
    elif case == "joints-string":
        path["joints"] = "a,b"
    elif case == "repeated-joints":
        path["joints"] = ["a", "a"]
    elif case == "unsorted-joints":
        path["joints"] = ["b", "a"]
    elif case == "sample-bool":
        path["samples"][3][1] = True
    elif case == "short-path":
        path["samples"].pop()
    elif case == "short-row":
        path["samples"][5].pop()
    elif case == "nan-sample":
        path["samples"][0][1] = math.nan
    elif case == "huge-integer":
        path["samples"][0][0] = 10**400
    return json.dumps(obj)


_BAD_DICTIONARIES = [
    ("json", "line 1"),
    ("not-object", "$: expected a JSON object"),
    ("samples-per-path", "samples_per_path"),
    ("tau-string", "$.tau"),
    ("tau-zero", "$.tau"),
    ("entries-list", "$.entries"),
    ("bad-key", "RightArm=Up.Middle"),
    ("unsorted-key", "not a (from-state)->(to-state) key"),
    ("repeated-column-key", "not a (from-state)->(to-state) key"),
    ("place-middle-key", "not a (from-state)->(to-state) key"),
    ("no-arrow-key", '$.entries["RightArm=Forward.Middle"]: not a (from-state)->(to-state) key: expected one ->'),
    ("empty-key", '$.entries[""]: not a (from-state)->(to-state) key: expected one ->'),
    ("misspelled-column-key", "RightArms=Place.Low->RightArms=Forward.Middle"),
    ("no-paths", "no paths"),
    ("count-string", ".count"),
    ("count-zero", ".count"),
    ("joints-string", ".joints"),
    ("repeated-joints", "[0].joints: joint names must be sorted and distinct"),
    ("unsorted-joints", "[0].joints: joint names must be sorted and distinct"),
    ("sample-bool", ".samples"),
    ("short-path", "32 rows of 2"),
    ("short-row", "32 rows of 2"),
    ("nan-sample", "non-finite"),
    ("huge-integer", "non-finite"),
]


@pytest.mark.parametrize("case,needle", _BAD_DICTIONARIES, ids=[case for case, _ in _BAD_DICTIONARIES])
def test_bad_dictionary_exit_1(tmp_path, capsys, case, needle):
    bad = tmp_path / "dict.json"
    bad.write_text(_bad_dict_text(case))
    golden = os.path.join(DATA, "golden_frontal_score.json")
    for argv in (["dict", "stats", str(bad)],
                 ["decode", golden, "--robot", "frontal_7dof", "--dict", str(bad), "-o", str(tmp_path / "t.csv")]):
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err, err
