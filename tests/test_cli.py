import json
import math
import os
import random
import shutil

import pytest

from labanmotion import cli, encoder, trajectory
from labanmotion.cli import main
from labanmotion.laban import Direction, LabanSymbol, Level, load_score
from labanmotion.robot import JointPose
from labanmotion.skeleton import load_sequence

DATA = os.path.join(os.path.dirname(__file__), "data")


def _synth(tmp_path, name="clip.json", pattern=None):
    out = str(tmp_path / name)
    argv = pattern or [
        "synth", "move_hold_move", "--part", "right_arm",
        "--from-pose", "place_low", "--to-pose", "forward_middle",
        "--hold", "0.5", "-o", out,
    ]
    assert main(argv) == 0
    return out


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
        "synth", "move_hold_move", "--part", "right_arm",
        "--from-pose", "nope", "--to-pose", "forward_middle", "--hold", "0.5", "-o", out,
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


def test_encode_decode_pipeline_files(tmp_path):
    clip = _synth(tmp_path)
    score_path = str(tmp_path / "score.json")
    assert main(["encode", clip, "-o", score_path]) == 0
    score = load_score(score_path)
    right = score.column("RightArm")
    assert [str(c.symbol) for c in right.cells] == ["Place.Low", "Forward.Middle"]

    traj_path = str(tmp_path / "traj.csv")
    assert main(["decode", score_path, "--robot", "frontal_7dof", "--interp", "cubic",
                 "--rate", "100", "-o", traj_path]) == 0
    lines = open(traj_path).read().strip().split("\n")
    assert lines[0].startswith("t,")
    assert len(lines) > 50


def test_static_needs_force_final(tmp_path):
    clip = _synth(tmp_path, "static.json", ["synth", "static", "--duration", "2", "-o", str(tmp_path / "static.json")])
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
        "synth", "move_hold_move", "--part", "right_arm",
        "--from-pose", "place_low", "--to-pose", "left_high",
        "--hold", "0.5", "-o", str(tmp_path / "c2.json"),
    ])
    dict_path = str(tmp_path / "dict.json")
    assert main(["dict", "build", clip1, clip2, "--robot", "frontal_7dof", "-o", dict_path]) == 0
    assert main(["dict", "stats", dict_path]) == 0
    out = capsys.readouterr().out
    assert "entries:" in out

    # rebuilding is bit-identical
    dict_path2 = str(tmp_path / "dict2.json")
    assert main(["dict", "build", clip1, clip2, "--robot", "frontal_7dof", "-o", dict_path2]) == 0
    assert open(dict_path, "rb").read() == open(dict_path2, "rb").read()

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
    stages = [line.split("]")[0] + "]" for line in capsys.readouterr().err.splitlines()]
    for name in ("[keyframes]", "[encode]", "[decode]", "[trajectory]"):
        assert stages.count(name) == 1, stages
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
    static = _synth(tmp_path, "static.json", ["synth", "static", "-o", str(tmp_path / "static.json")])
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([a.format(tmp=tmp_path, clip=clip, static=static) for a in argv] + ["-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert os.listdir(out) == []


@pytest.mark.parametrize("value,rc", [("1", 0), ("TRUE", 0), ("Yes", 0), ("0", 1), ("false", 1), ("NO", 1)])
def test_config_bool_values(tmp_path, value, rc):
    clip = _synth(tmp_path, "static.json", ["synth", "static", "-o", str(tmp_path / "static.json")])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"force_final_keyframe = {value}\n")
    # a static clip has key frames only when the final frame is forced
    assert main(["--config", str(cfg), "encode", clip, "-o", str(tmp_path / "score.json")]) == rc


def test_decode_single_pose_score(tmp_path):
    clip = _synth(tmp_path, "static.json",
                  ["synth", "static", "--duration", "2", "-o", str(tmp_path / "static.json")])
    score_path = str(tmp_path / "score.json")
    assert main(["encode", clip, "--force-final-keyframe", "-o", score_path]) == 0
    traj_path = str(tmp_path / "traj.csv")
    assert main(["decode", score_path, "--robot", "lab_9dof", "-o", traj_path]) == 0
    lines = open(traj_path).read().strip().split("\n")
    assert len(lines) == 2  # header + the single decoded pose


def test_config_traj_rate(tmp_path):
    clip = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("traj_rate = 50\nrobot = frontal_7dof\n")
    outdir = tmp_path / "out"
    assert main(["--config", str(cfg), "pipeline", clip, "-o", str(outdir)]) == 0
    rows = (outdir / "trajectory.csv").read_text().strip().split("\n")[1:]
    times = [float(r.split(",")[0]) for r in rows]
    assert times[1] - times[0] == pytest.approx(0.02, abs=1e-9)


@pytest.mark.parametrize("config,step", [("", 0.01), ("rate = 30\n", 0.01), ("traj_rate = 50\n", 0.02)],
                         ids=["no-config", "config-rate", "config-traj-rate"])
def test_config_rate_is_not_the_decode_rate(tmp_path, config, step):
    # rate is the skeleton rate; only traj_rate (or --rate) sets decode's rate
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    golden = os.path.join(DATA, "golden_frontal_score.json")
    out = tmp_path / "t.csv"
    assert main(["--config", str(cfg), "decode", golden, "--robot", "frontal_7dof", "-o", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    times = [float(r.split(",")[0]) for r in rows[:2]]
    assert times[1] - times[0] == pytest.approx(step, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["encode", "{tmp}/nope.json", "-o", "{tmp}/score.json"],
    ["synth", "static", "-o", "{tmp}/nodir/x.json"],
    ["synth", "static", "-o", "{tmp}"],
    ["decode", "{tmp}/nope.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"],
    ["decode", "{golden}", "--robot", "{tmp}/nope_robot.json", "-o", "{tmp}/t.csv"],
    ["decode", "{golden}", "--robot", "frontal_7dof", "-o", "{tmp}/nodir/t.csv"],
    ["--config", "{tmp}/nope.cfg", "synth", "static", "-o", "{tmp}/x.json"],
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


def _score_text(duration: str, total: str, start: str = "0.0") -> str:
    """A frontal_7dof score whose RightArm cell has the given duration and start."""
    columns = [
        '{"cells": [{"dir": "Forward", "duration": %s, "level": "Middle", "start": %s}], "name": "%s"}'
        % (((duration, start) if name == "RightArm" else ("1.0", "0.0")) + (name,))
        for name in ("Head", "LeftArm", "RightArm")
    ]
    return '{"columns": [%s], "meta": {}, "total_duration": %s}' % (", ".join(columns), total)


@pytest.mark.parametrize("argv,config,needle", [
    (["decode", "{golden}", "--robot", "frontal_7dof", "--rate", "0", "-o", "{tmp}/t.csv"], None, "rate"),
    (["decode", "{golden}", "--robot", "frontal_7dof", "--rate", "nan", "-o", "{tmp}/t.csv"], None, "rate"),
    (["decode", "{golden}", "--robot", "frontal_7dof", "--rate=-inf", "-o", "{tmp}/t.csv"], None, "rate"),
    (["pipeline", "{clip}", "--robot", "frontal_7dof", "--traj-rate", "-1", "-o", "{tmp}/out"], None, "rate"),
    (["decode", "{tmp}/nan.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None, "non-finite"),
    (["decode", "{tmp}/inf.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None, "non-finite"),
    (["--config", "{tmp}/run.cfg", "keyframes", "{clip}", "-o", "{tmp}/kf.json"], "sigma = abc\n",
     "run.cfg:1: sigma"),
    (["--config", "{tmp}/run.cfg", "keyframes", "{clip}", "-o", "{tmp}/kf.json"], "\nrate = nan\n",
     "run.cfg:2: rate"),
    (["--config", "{tmp}/run.cfg", "decode", "{golden}", "-o", "{tmp}/t.csv"],
     "robot = frontal_7dof\ntraj_rate = 0\n", "rate"),
    (["decode", "{golden}", "--robot", "frontal_7dof", "--rate", "1e9", "-o", "{tmp}/t.csv"], None,
     "samples"),
    (["--config", "{tmp}/run.cfg", "decode", "{golden}", "-o", "{tmp}/t.csv"],
     "robot = frontal_7dof\ninterp = quintic\n", "run.cfg:2: interp"),
    (["--config", "{tmp}/run.cfg", "keyframes", "{clip}", "-o", "{tmp}/kf.json"], "peak_mode = median\n",
     "run.cfg:1: peak_mode"),
    (["--config", "{tmp}/run.cfg", "encode", "{clip}", "-o", "{tmp}/score.json"], "columns = legs\n",
     "run.cfg:1: columns"),
    (["synth", "move_hold_move", "--part", "right_arm", "--from-pose", "place_low", "-o", "{tmp}/x.json"], None,
     "to pose"),
    (["synth", "move_hold_move", "--to-pose", "forward_middle", "-o", "{tmp}/x.json"], None, "from pose"),
    (["synth", "reach_sequence", "--pose", "place_low:0.5", "--pose", "forward_middle:x", "-o", "{tmp}/x.json"],
     None, "dwell of forward_middle"),
    (["synth", "static", "--rate", "nan", "-o", "{tmp}/x.json"], None, "rate"),
    (["synth", "static", "--duration", "nan", "-o", "{tmp}/x.json"], None, "duration"),
    (["synth", "reach_sequence", "--pose", "place_low:0.5", "--pose", "left_high:0.5", "--move-seconds", "nan",
      "-o", "{tmp}/x.json"], None, "move_seconds"),
    (["keyframes", "{clip}", "--sigma=-1", "-o", "{tmp}/kf.json"], None, "sigma"),
    (["keyframes", "{clip}", "--sigma", "nan", "-o", "{tmp}/kf.json"], None, "sigma"),
    (["keyframes", "{clip}", "--prominence", "2", "-o", "{tmp}/kf.json"], None, "prominence"),
    (["keyframes", "{clip}", "--rate", "0", "-o", "{tmp}/kf.json"], None, "rate"),
    (["keyframes", "{clip}", "--rate", "nan", "-o", "{tmp}/kf.json"], None, "rate"),
    (["keyframes", "{clip}", "--min-sep", "nan", "-o", "{tmp}/kf.json"], None, "min_separation"),
    (["keyframes", "{clip}", "--merge-window", "inf", "-o", "{tmp}/kf.json"], None, "merge_window"),
    (["dict", "build", "{clip}", "--robot", "frontal_7dof", "--tau", "0", "-o", "{tmp}/d.json"], None, "tau"),
    (["dict", "build", "{clip}", "--robot", "frontal_7dof", "--tau", "nan", "-o", "{tmp}/d.json"], None, "tau"),
    (["keyframes", "{tmp}/typed.json", "-o", "{tmp}/kf.json"], None, "frame 3: joint WristRight"),
    (["--config", "{tmp}/run.cfg", "encode", "{clip}", "-o", "{tmp}/score.json"],
     "force_final_keyframe = maybe\n", "run.cfg:1: force_final_keyframe"),
    # both grids would far exceed the sample cap, which is checked before any allocation
    (["keyframes", "{clip}", "--rate", "1e9", "-o", "{tmp}/kf.json"], None, "samples"),
    (["synth", "static", "--rate", "1e9", "-o", "{tmp}/x.json"], None, "samples"),
    # so would the smoothing kernel
    (["keyframes", "{clip}", "--sigma", "1e9", "-o", "{tmp}/kf.json"], None, "samples"),
    (["keyframes", "{clip}", "--sigma", "1e300", "-o", "{tmp}/kf.json"], None, "samples"),
    # 2 s^2 underflows to 0: the kernel would be 0/0
    (["keyframes", "{clip}", "--sigma", "1e-300", "-o", "{tmp}/kf.json"], None, "sigma"),
    # integers beyond the float range are non-finite numbers; bools are not numbers
    (["decode", "{tmp}/big-total.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None, "non-finite"),
    (["decode", "{tmp}/big-start.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None, "non-finite"),
    (["decode", "{tmp}/false-start.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None,
     "$.columns[2].cells[0].start"),
    (["decode", "{tmp}/true-duration.json", "--robot", "frontal_7dof", "-o", "{tmp}/t.csv"], None,
     "$.columns[2].cells[0].duration"),
    (["keyframes", "{tmp}/big-t.json", "-o", "{tmp}/kf.json"], None, "frames[3].t"),
], ids=["decode-rate-0", "decode-rate-nan", "decode-rate-minus-inf", "pipeline-traj-rate-negative",
        "score-nan-duration", "score-infinite-total", "config-sigma-not-a-number",
        "config-rate-nan", "config-rate-0", "decode-rate-1e9", "config-interp-unknown",
        "config-peak-mode-unknown", "config-columns-unknown", "synth-no-to-pose", "synth-no-from-pose",
        "synth-dwell-not-a-number", "synth-rate-nan", "synth-duration-nan", "synth-move-seconds-nan",
        "keyframes-sigma-negative", "keyframes-sigma-nan", "keyframes-prominence-2", "keyframes-rate-0",
        "keyframes-rate-nan",
        "keyframes-min-sep-nan", "keyframes-merge-window-inf", "dict-tau-0", "dict-tau-nan",
        "skeleton-string-coordinate", "config-bool-unknown", "keyframes-rate-1e9", "synth-rate-1e9",
        "keyframes-sigma-1e9", "keyframes-sigma-1e300", "keyframes-sigma-1e-300", "score-401-digit-total",
        "score-401-digit-start", "score-false-start", "score-true-duration", "skeleton-401-digit-t"])
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
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    capsys.readouterr()
    rc = main([a.format(tmp=tmp_path, golden=golden, clip=clip) for a in argv])
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
    (_NAN_LIMIT_ROBOT, "yaw_limits: bad limits [nan, 90]"),
    (_NAN_LIMIT_ROBOT.replace("NaN", "-1" + "0" * 400), "yaw_limits: bad limits [-1000"),
    (_NAN_LIMIT_ROBOT.replace("NaN", "true"), "yaw_limits: expected [lo, hi] degrees"),
], ids=["chains-not-list", "chain-not-object", "segments-not-list", "segment-not-object",
        "fixed-joints-not-list", "fixed-joint-not-object", "nan-limit", "limit-beyond-float-range",
        "bool-limit"])
def test_bad_robot_exit_1(tmp_path, capsys, text, needle):
    (tmp_path / "robot.json").write_text(text)
    golden = os.path.join(DATA, "golden_frontal_score.json")
    rc = main(["decode", golden, "--robot", str(tmp_path / "robot.json"), "-o", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err, err


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
    observe, encode_pose = cli._Run.observe, encoder.encode_pose

    def counting_observe(run, path):
        seq, kfs = observe(run, path)
        events.append(("observe", len(kfs.merged)))
        return seq, kfs

    def counting_encode(*args, **kwargs):
        events.append(("encode", 1))
        return encode_pose(*args, **kwargs)

    monkeypatch.setattr(cli._Run, "observe", counting_observe)
    monkeypatch.setattr(encoder, "encode_pose", counting_encode)
    assert main(["dict", "build", *clips, "--robot", "frontal_7dof", "-o", str(tmp_path / "d.json")]) == 0
    per_clip = []
    for kind, n in events:
        if kind == "observe":
            per_clip.append([n, 0])
        else:
            per_clip[-1][1] += 1
    assert len(per_clip) == 2
    assert max(merged for merged, _ in per_clip) >= 4
    assert all(encodes == merged for merged, encodes in per_clip)


def _bad_dict_text(case: str) -> str:
    """A one-path dictionary file, broken as ``case`` says."""
    if case == "json":
        return '{"samples_per_path": 32,'
    if case == "not-object":
        return "[]"
    mdict = trajectory.MotionDictionary()
    key = trajectory.DictKey.from_states(
        {"RightArm": LabanSymbol(Direction.Place, Level.Low)},
        {"RightArm": LabanSymbol(Direction.Forward, Level.Middle)},
    )
    observed = [JointPose(t=float(t), angles={"a": 10.0 * t, "b": -5.0 * t}) for t in range(3)]
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
    elif case == "no-paths":
        obj["entries"] = {k: [] for k in obj["entries"]}
    elif case == "count-string":
        path["count"] = "1"
    elif case == "count-zero":
        path["count"] = 0
    elif case == "joints-string":
        path["joints"] = "a,b"
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
    ("no-paths", "no paths"),
    ("count-string", ".count"),
    ("count-zero", ".count"),
    ("joints-string", ".joints"),
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
