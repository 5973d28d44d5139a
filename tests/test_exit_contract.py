"""The exit contract as a property of the readers: whatever a skeleton clip,
score, robot description, motion dictionary or config file holds, every
command that reads it exits 0 or 1, never 2 (an internal error), and prints
at most one ``error:`` line; a file that is not UTF-8 exits 1 with one line
naming it. And the one skeleton reader gives what a whole-document reference
gives on every mutated clip: the same arrays, or the same error.

The inputs are seeded mutations of ``synth`` clips, the four golden scores,
the two bundled robots, a dictionary that ``dict build`` writes and a config
file: numbers and values swapped for ones a reader must refuse or convert,
unknown tokens and keys, renamed joints, deleted keys, deleted bytes,
duplicated spans and inserted bytes that are not UTF-8. Each runs through
``cli.main`` in process, so a numpy RuntimeWarning is an error here too
(``filterwarnings`` in pyproject.toml).
"""

import glob
import json
import os
import random
import re

import pytest

from labanmotion import cli, skeleton
from labanmotion.errors import LabanMotionError
from labanmotion.robot import _ROBOTS_DIR, BUNDLED_ROBOTS
from labanmotion.skeleton import JointName

from conftest import parse_sequence_reference

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = sorted(glob.glob(os.path.join(DATA, "golden_*_score.json")))
# the goldens that both bundled robots decode, so a refusal comes from the mutated file
WHOLE_ARM = [os.path.join(DATA, f"golden_{name}_score.json") for name in ("backward", "frontal")]

_NUMBER = re.compile(r"(?<=: )-?\d[\d.eE+-]*")
_NUMBER_SWAPS = ("1e400", "-0", "NaN", "true", "null", '"1"')
_TOKEN = re.compile(r'"(?:dir|level|name)": "([^"]*)"')
_UNKNOWN_TOKENS = ("Up", "Mid", "forward", "High", "Forward", "Tail", "", "Place.Low")


def _swap_number(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_NUMBER.finditer(text)))
    return text[:m.start()] + rng.choice(_NUMBER_SWAPS) + text[m.end():]


def _unknown_token(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_TOKEN.finditer(text)))
    return text[:m.start(1)] + rng.choice(_UNKNOWN_TOKENS) + text[m.end(1):]


def _delete_key(rng: random.Random, text: str) -> str:
    obj = json.loads(text)
    objects, stack = [], [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            objects += [(node, key) for key in node]
            stack += node.values()
        elif isinstance(node, list):
            stack += node
    node, key = rng.choice(objects)
    del node[key]
    return json.dumps(obj)


def _delete_bytes(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text))
        text = text[:i] + text[i + rng.randint(1, 4):]
    return text


MUTATIONS = {"number": _swap_number, "token": _unknown_token, "key": _delete_key, "bytes": _delete_bytes}


def _run(argv, capsys, what):
    """Exit status of one command, which must be 0 or 1 with at most one
    ``error:`` line on stderr."""
    rc = cli.main(argv)
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert rc in (0, 1) and len(errors) <= 1, (what, argv, rc, err)
    return rc


def test_mutated_scores_exit_0_or_1_with_at_most_one_error_line(tmp_path, capsys):
    rng = random.Random(23)
    goldens = [open(path, encoding="utf-8").read() for path in GOLDEN]
    assert len(goldens) == 4
    score, csv = str(tmp_path / "score.json"), str(tmp_path / "t.csv")
    exits = {kind: set() for kind in MUTATIONS}
    for case in range(200):
        kind = rng.choice(sorted(MUTATIONS))
        text = MUTATIONS[kind](rng, rng.choice(goldens))
        with open(score, "w", encoding="utf-8") as fh:
            fh.write(text)
        robot = rng.choice(sorted(BUNDLED_ROBOTS))
        for argv in (["decode", score, "--robot", robot, "-o", csv], ["roundtrip", score, "--robot", robot]):
            rc = cli.main(argv)
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert rc in (0, 1) and len(errors) <= 1, (case, kind, argv[0], rc, err, text[:2000])
            exits[kind].add(rc)
    # every kind of mutation made some score that a reader refused
    assert all(1 in seen for seen in exits.values()), exits
    assert any(0 in seen for seen in exits.values()), exits


# any JSON number, not only one after a key: limits and path samples sit in lists
_ANY_NUMBER = re.compile(r'(?<![\w".])-?\d[\d.eE+-]*')
_ANY_NUMBER_SWAPS = _NUMBER_SWAPS + ("Infinity", "1e-320", "1" + "0" * 30, "0", "[]", "{}")
# every string value or key of a robot or dictionary file: names, refs, columns, keys
_STRING = re.compile(r'"([^"\\]*)"')
_STRING_SWAPS = ("", "RightArms", "right_arm/1", "right_arm/0", "LeftArm", "RightUpperArm", "head_yaw",
                 "Head=Place.High", "->", "samples", "count")


def _swap_any_number(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_ANY_NUMBER.finditer(text)))
    return text[:m.start()] + rng.choice(_ANY_NUMBER_SWAPS) + text[m.end():]


def _swap_string(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_STRING.finditer(text)))
    return text[:m.start(1)] + rng.choice(_STRING_SWAPS) + text[m.end(1):]


def _duplicate_span(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text))
    j = min(len(text), i + rng.randint(1, 300))
    return text[:j] + text[i:j] + text[j:]


FILE_MUTATIONS = {"number": _swap_any_number, "string": _swap_string, "key": _delete_key, "bytes": _delete_bytes,
                  "span": _duplicate_span}


def _clips(tmp_path, capsys):
    """Two short synth clips, one per arm."""
    paths = []
    for part, poses in (("right_arm", ("place_low", "forward_middle", "right_high")),
                        ("left_arm", ("place_low", "left_high", "forward_middle"))):
        path = str(tmp_path / f"{part}.json")
        argv = ["synth", "reach_sequence", "--part", part, "-o", path]
        assert cli.main(argv + [arg for pose in poses for arg in ("--pose", f"{pose}:0.4")]) == 0
        paths.append(path)
    capsys.readouterr()
    return paths


def test_mutated_robots_exit_0_or_1_with_at_most_one_error_line(tmp_path, capsys):
    rng = random.Random(24)
    robots = [open(os.path.join(_ROBOTS_DIR, f"{name}.json"), encoding="utf-8").read() for name in BUNDLED_ROBOTS]
    assert len(robots) == 2
    clip = _clips(tmp_path, capsys)[0]
    robot, csv, out = str(tmp_path / "robot.json"), str(tmp_path / "t.csv"), str(tmp_path / "dict.json")
    exits = {kind: set() for kind in FILE_MUTATIONS}
    for case in range(200):
        kind = rng.choice(sorted(FILE_MUTATIONS))
        text = FILE_MUTATIONS[kind](rng, rng.choice(robots))
        with open(robot, "w", encoding="utf-8") as fh:
            fh.write(text)
        score = rng.choice(WHOLE_ARM)
        for argv in (["decode", score, "--robot", robot, "-o", csv], ["roundtrip", score, "--robot", robot],
                     ["dict", "build", clip, "--robot", robot, "-o", out]):
            exits[kind].add(_run(argv, capsys, (case, kind, text[:2000])))
    # every kind of mutation made some robot that a reader refused
    assert all(1 in seen for seen in exits.values()), exits
    assert any(0 in seen for seen in exits.values()), exits


def test_mutated_dictionaries_exit_0_or_1_with_at_most_one_error_line(tmp_path, capsys):
    rng = random.Random(25)
    built = str(tmp_path / "built.json")
    assert cli.main(["dict", "build", *_clips(tmp_path, capsys), "--robot", "frontal_7dof", "-o", built]) == 0
    base = open(built, encoding="utf-8").read()
    assert _run(["dict", "stats", built], capsys, "unmutated") == 0
    mdict, csv = str(tmp_path / "dict.json"), str(tmp_path / "t.csv")
    exits = {kind: set() for kind in FILE_MUTATIONS}
    for case in range(200):
        kind = rng.choice(sorted(FILE_MUTATIONS))
        text = FILE_MUTATIONS[kind](rng, base)
        with open(mdict, "w", encoding="utf-8") as fh:
            fh.write(text)
        score = rng.choice(WHOLE_ARM)
        for argv in (["decode", score, "--robot", "frontal_7dof", "--dict", mdict, "-o", csv],
                     ["dict", "stats", mdict]):
            exits[kind].add(_run(argv, capsys, (case, kind, text[:2000])))
    assert all(1 in seen for seen in exits.values()), exits
    assert any(0 in seen for seen in exits.values()), exits


# ---------------------------------------------------------------------------
# Skeleton clips: the commands that read them, and the one reader against the
# whole-document reference
# ---------------------------------------------------------------------------

_JOINT_KEY = re.compile(r'"(%s)"' % "|".join(j.value for j in JointName))
_JOINT_SWAPS = tuple(j.value for j in JointName) + ("", "Heads", "neck")


def _rename_joint(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_JOINT_KEY.finditer(text)))
    return text[:m.start(1)] + rng.choice(_JOINT_SWAPS) + text[m.end(1):]


CLIP_MUTATIONS = {"number": _swap_any_number, "bytes": _delete_bytes, "span": _duplicate_span,
                  "joint": _rename_joint, "key": _delete_key}


def _mutate_clip(rng: random.Random, text: str, count: int) -> tuple[str, list[str]]:
    """``text`` after ``count`` mutations, and their kinds; a mutation that
    finds nothing to change (no JSON left to delete a key from, no number
    left to swap) leaves the text as it is."""
    kinds = [rng.choice(sorted(CLIP_MUTATIONS)) for _ in range(count)]
    for kind in kinds:
        try:
            text = CLIP_MUTATIONS[kind](rng, text)
        except (ValueError, IndexError):
            pass
    return text, kinds


def test_mutated_clips_exit_0_or_1_with_at_most_one_error_line(tmp_path, capsys):
    """keyframes, encode, dict build and pipeline on mutated clips; a pipeline
    that exits 1 leaves its output directory empty."""
    rng = random.Random(27)
    clips = [open(path, encoding="utf-8").read() for path in _clips(tmp_path, capsys)]
    clip, kf, score, built = (str(tmp_path / name) for name in ("clip.json", "kf.json", "score.json", "dict.json"))
    exits = {kind: set() for kind in CLIP_MUTATIONS}
    for case in range(120):
        text, kinds = _mutate_clip(rng, rng.choice(clips), 1)
        with open(clip, "w", encoding="utf-8") as fh:
            fh.write(text)
        robot = rng.choice(sorted(BUNDLED_ROBOTS))
        out = tmp_path / f"out{case}"
        for argv in (["keyframes", clip, "-o", kf], ["encode", clip, "-o", score],
                     ["dict", "build", clip, "--robot", robot, "-o", built],
                     ["pipeline", clip, "--robot", robot, "-o", str(out)]):
            rc = _run(argv, capsys, (case, kinds, text[:2000]))
            exits[kinds[0]].add(rc)
        if rc == 1:
            assert not out.exists() or not os.listdir(out), (case, kinds, os.listdir(out))
    assert all(1 in seen for seen in exits.values()), exits
    assert any(0 in seen for seen in exits.values()), exits


def test_skeleton_readers_agree_on_mutated_clips(monkeypatch):
    """On seeded clips with one to three mutations each, read in chunks of
    several sizes, parse_sequence gives what the whole-document reference
    gives: bit-identical arrays and rate, or an error of the same class and
    message."""
    seq = skeleton.synth_motion({"pattern": "reach_sequence", "part": "right_arm",
                                 "poses": [["place_low", 0.3], ["forward_middle", 0.3]]}, rate=30.0)
    base = skeleton.serialize_sequence(seq)
    rng = random.Random(26)
    accepted = {kind: 0 for kind in CLIP_MUTATIONS}
    refused = {kind: 0 for kind in CLIP_MUTATIONS}
    errors = set()
    for case in range(1000):
        text, kinds = _mutate_clip(rng, base, rng.randint(1, 3))
        monkeypatch.setattr(skeleton, "_CHUNK", rng.choice((1, 5, 16, 64)))
        try:
            want = parse_sequence_reference(text)
        except LabanMotionError as exc:
            with pytest.raises(LabanMotionError) as got:
                skeleton.parse_sequence(text)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc)), (case, kinds, text[:2000])
            errors.add(type(exc).__name__)
            for kind in kinds:
                refused[kind] += 1
            continue
        got = skeleton.parse_sequence(text)
        assert got.times.tobytes() == want.times.tobytes(), (case, kinds)
        assert got.positions.tobytes() == want.positions.tobytes(), (case, kinds)
        assert repr(got.sample_rate) == repr(want.sample_rate), (case, kinds)
        for kind in kinds:
            accepted[kind] += 1
    # every kind of mutation was in clips that were refused, and every kind but
    # a deleted key (which leaves a valid clip only when it is sample_rate_hint)
    # in clips that were read
    assert all(refused.values()) and all(n for kind, n in accepted.items() if kind != "key"), (accepted, refused)
    assert errors >= {"ParseError", "MalformedFrame", "TimeOrderError"}, errors


def test_dict_build_names_the_clip_that_failed(tmp_path, capsys):
    """An error in one of several clips names that clip, once, whichever of
    them it is, and no dictionary is written."""
    clips, out = _clips(tmp_path, capsys), str(tmp_path / "dict.json")
    for bad in clips:
        good = open(bad, encoding="utf-8").read()
        obj = json.loads(good)
        obj["frames"][6]["joints"]["Head"][0] = "0.1"
        # a string coordinate, and a copy cut off part way, named at its line and column
        for text, detail in ((json.dumps(obj), "frame 6: joint Head (bad coordinate triple)\n"),
                             (good[:3000], "line ")):
            with open(bad, "w", encoding="utf-8") as fh:
                fh.write(text)
            rc = cli.main(["dict", "build", *clips, "--robot", "frontal_7dof", "-o", out])
            err = capsys.readouterr().err
            assert rc == 1 and err.count("\n") == 1 and err.startswith(f"error: {bad}: {detail}"), (bad, err)
            assert sum(err.count(clip) for clip in clips) == 1, err
            assert not os.path.exists(out)
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(good)


def test_pipeline_and_decode_check_the_robot_and_dictionary_before_any_stage(tmp_path, capsys, monkeypatch):
    """A robot that feeds one segment from two columns, or a dictionary whose
    entries are not an object, is refused before the clip is read and before
    any stage runs: one error: line and no stage line, even with --verbose."""
    clip = _clips(tmp_path, capsys)[0]
    robot, mdict, csv, out = (str(tmp_path / name) for name in ("robot.json", "dict.json", "t.csv", "out"))
    frontal = open(os.path.join(_ROBOTS_DIR, "frontal_7dof.json"), encoding="utf-8").read()
    fed_by_two = frontal.replace('"RightArm": ["right_arm/0"]',
                                 '"RightUpperArm": ["right_arm/0"], "RightForearm": ["right_arm/0"]')
    assert fed_by_two != frontal
    with open(robot, "w", encoding="utf-8") as fh:
        fh.write(fed_by_two)
    assert cli.main(["dict", "build", clip, "--robot", "frontal_7dof", "-o", mdict]) == 0
    obj = json.load(open(mdict, encoding="utf-8"))
    obj["entries"] = 5
    with open(mdict, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    capsys.readouterr()

    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(skeleton, "load_sequence", unread)
    # the patched reader is the one a pipeline calls: a robot and dictionary that load reach it
    assert cli.main(["pipeline", clip, "--robot", "frontal_7dof", "-o", out]) == 2
    assert capsys.readouterr().err.startswith("internal error: AssertionError")
    refused = {"robot": "segment right_arm/0 fed by 2 columns (a segment takes one)",
               "dictionary": "$.entries: expected an object"}
    for argv, message in (
            (["pipeline", clip, "--robot", robot, "-o", out], refused["robot"]),
            (["pipeline", clip, "--robot", "frontal_7dof", "--dict", mdict, "-o", out], refused["dictionary"]),
            (["decode", WHOLE_ARM[0], "--robot", "frontal_7dof", "--dict", mdict, "-o", csv], refused["dictionary"])):
        assert (cli.main(["--verbose", *argv]), capsys.readouterr().err) == (1, f"error: {message}\n"), argv
        assert not os.path.exists(csv)


# ---------------------------------------------------------------------------
# The config reader, and bytes that are not UTF-8 in any file
# ---------------------------------------------------------------------------

def _config(dictionary: str) -> str:
    """A config file that sets every key ``pipeline`` and ``dict build`` read."""
    return "\n".join(["# every stage", "rate = 25", "sigma = 0.08", "prominence = 0.1", "min_sep = 0.2",
                      "merge_window = 0.15", "peak_mode = max", "force_final_keyframe = yes", "columns = arm",
                      "robot = frontal_7dof", "interp = cubic", f'dict = "{dictionary}"', "traj_rate = 50  # Hz",
                      "tau = 12", "move_seconds = 0.8", ""])


_CONFIG_LINE = re.compile(r"^(\w+) = ([^#\n]*)", re.M)
_CONFIG_VALUES = ("", "1e400", "nan", "inf", "-inf", "-0", "0", "1e-320", "1e30", "1" + "0" * 400, "true", "no",
                  "abc", '"', "lab_9dof", "split", "linear", "min", "=", "0.5")
_CONFIG_KEYS = tuple(cli.SETTINGS) + ("rates", "Rate", "", "traj-rate")


def _swap_config_value(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_CONFIG_LINE.finditer(text)))
    return text[:m.start(2)] + rng.choice(_CONFIG_VALUES) + text[m.end(2):]


def _swap_config_key(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_CONFIG_LINE.finditer(text)))
    return text[:m.start(1)] + rng.choice(_CONFIG_KEYS) + text[m.end(1):]


CONFIG_MUTATIONS = {"value": _swap_config_value, "key": _swap_config_key, "bytes": _delete_bytes,
                    "span": _duplicate_span}


def test_mutated_configs_exit_0_or_1_with_at_most_one_error_line(tmp_path, capsys):
    rng = random.Random(28)
    clips = _clips(tmp_path, capsys)
    built = str(tmp_path / "built.json")
    assert cli.main(["dict", "build", *clips, "--robot", "frontal_7dof", "-o", built]) == 0
    base = _config(built)
    cfg, out = str(tmp_path / "labanmotion.cfg"), str(tmp_path / "dict.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(base)
    assert _run(["--config", cfg, "pipeline", clips[0], "-o", str(tmp_path / "plain")], capsys, "unmutated") == 0
    exits = {kind: set() for kind in CONFIG_MUTATIONS}
    for case in range(150):
        kind = rng.choice(sorted(CONFIG_MUTATIONS))
        text = CONFIG_MUTATIONS[kind](rng, base)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["--config", cfg, "pipeline", clips[0], "-o", str(tmp_path / f"out{case}")],
                     ["--config", cfg, "dict", "build", clips[1], "-o", out]):
            exits[kind].add(_run(argv, capsys, (case, kind, text)))
    assert all(1 in seen for seen in exits.values()), exits
    assert any(0 in seen for seen in exits.values()), exits


_NOT_UTF8 = (b"\xff", b"\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80")


def _insert_not_utf8(rng: random.Random, data: bytes) -> bytes:
    i = rng.randrange(len(data) + 1)
    return data[:i] + rng.choice(_NOT_UTF8) + data[i:]


def _file_kinds(tmp_path, capsys) -> dict[str, tuple[bytes, list[list[str]]]]:
    """Kind of file -> (the bytes of a valid one, argv that read it from
    ``tmp_path/bad`` and write only ``tmp_path/t.csv``)."""
    clips = _clips(tmp_path, capsys)
    built = str(tmp_path / "built.json")
    assert cli.main(["dict", "build", *clips, "--robot", "frontal_7dof", "-o", built]) == 0
    csv, score, bad = str(tmp_path / "t.csv"), WHOLE_ARM[0], str(tmp_path / "bad")
    kinds = {
        "clip": (clips[0], [["keyframes", bad, "-o", csv], ["dict", "build", bad, "--robot", "frontal_7dof",
                                                            "-o", csv]]),
        "score": (score, [["decode", bad, "--robot", "frontal_7dof", "-o", csv],
                          ["roundtrip", bad, "--robot", "lab_9dof"]]),
        "robot": (os.path.join(_ROBOTS_DIR, "frontal_7dof.json"), [["decode", score, "--robot", bad, "-o", csv]]),
        "dictionary": (built, [["dict", "stats", bad],
                               ["decode", score, "--robot", "frontal_7dof", "--dict", bad, "-o", csv]]),
        "config": (None, [["--config", bad, "decode", score, "--robot", "frontal_7dof", "-o", csv]]),
    }
    return {kind: (_config(built).encode() if path is None else open(path, "rb").read(), argvs)
            for kind, (path, argvs) in kinds.items()}


def test_files_that_are_not_utf8_exit_1_naming_the_file(tmp_path, capsys):
    """A byte sequence that is not UTF-8, anywhere in any kind of file a
    command reads, exits 1 with one ``error:`` line naming that file."""
    rng = random.Random(29)
    csv, bad = str(tmp_path / "t.csv"), str(tmp_path / "bad")
    for kind, (base, argvs) in _file_kinds(tmp_path, capsys).items():
        for case in range(10):
            with open(bad, "wb") as fh:
                fh.write(_insert_not_utf8(rng, base))
            for argv in argvs:
                rc = cli.main(argv)
                err = capsys.readouterr().err
                assert rc == 1 and err.count("\n") == 1 and err.startswith(f"error: {bad}: not UTF-8 text"), \
                    (kind, case, argv, rc, err)
            assert not os.path.exists(csv)


def test_a_leading_byte_order_mark_is_read_as_absent(tmp_path, capsys):
    """Every kind of file a command reads gives the same exit status, output
    and written file with one leading UTF-8 byte-order mark as without it;
    a byte that is not UTF-8 after the mark is named at its offset in the
    file, the mark's three bytes counted."""
    csv, bad = str(tmp_path / "t.csv"), str(tmp_path / "bad")

    def run(data: bytes, argv):
        with open(bad, "wb") as fh:
            fh.write(data)
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        written = open(csv, "rb").read() if os.path.exists(csv) else None
        if written is not None:
            os.remove(csv)
        return rc, out.replace(bad, "BAD"), err, written

    for kind, (base, argvs) in _file_kinds(tmp_path, capsys).items():
        for argv in argvs:
            plain = run(base, argv)
            assert plain[0] == 0 and plain[2] == "", (kind, argv, plain)
            assert run(b"\xef\xbb\xbf" + base, argv) == plain, (kind, argv)
            rc, _, err, written = run(b"\xef\xbb\xbf" + base[:7] + b"\xff" + base[7:], argv)
            assert (rc, err, written) == (1, f"error: {bad}: not UTF-8 text: invalid start byte at byte 10\n", None)
