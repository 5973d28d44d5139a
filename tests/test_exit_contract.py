"""The exit contract as a property of the readers: whatever a score, robot
description or motion dictionary file holds, every command that reads it
exits 0 or 1, never 2 (an internal error), and prints at most one ``error:``
line. And the two skeleton readers agree wherever the streaming one accepts
a file.

The inputs are seeded mutations of the four golden scores, the two bundled
robots, a dictionary that ``dict build`` writes and a ``synth`` clip:
numbers swapped for values a reader must refuse or convert, unknown tokens,
renamed joints, deleted keys, deleted bytes and duplicated spans. Each runs
through ``cli.main`` in process, so a numpy RuntimeWarning is an error here
too (``filterwarnings`` in pyproject.toml).
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
# The two skeleton readers: the stream reads valid files, _parse_document
# reads the others again to name the error
# ---------------------------------------------------------------------------

_JOINT_KEY = re.compile(r'"(%s)"' % "|".join(j.value for j in JointName))
_JOINT_SWAPS = tuple(j.value for j in JointName) + ("", "Heads", "neck")


def _rename_joint(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_JOINT_KEY.finditer(text)))
    return text[:m.start(1)] + rng.choice(_JOINT_SWAPS) + text[m.end(1):]


CLIP_MUTATIONS = {"number": _swap_any_number, "bytes": _delete_bytes, "span": _duplicate_span,
                  "joint": _rename_joint}


def test_skeleton_readers_agree_on_mutated_clips():
    """Wherever the stream accepts a mutated clip, the whole-document reader
    accepts it too, with bit-identical arrays and rate; wherever the stream
    refuses one, parse_sequence raises a LabanMotionError and nothing else."""
    seq = skeleton.synth_motion({"pattern": "reach_sequence", "part": "right_arm",
                                 "poses": [["place_low", 0.3], ["forward_middle", 0.3]]}, rate=30.0)
    base = skeleton.serialize_sequence(seq)
    rng = random.Random(26)
    accepted = {kind: 0 for kind in CLIP_MUTATIONS}
    refused = {kind: 0 for kind in CLIP_MUTATIONS}
    for case in range(500):
        kind = rng.choice(sorted(CLIP_MUTATIONS))
        text = CLIP_MUTATIONS[kind](rng, base)
        try:
            got = skeleton._stream_sequence(text)
        except skeleton._STREAM_ERRORS:
            with pytest.raises(LabanMotionError):
                skeleton.parse_sequence(text)
            refused[kind] += 1
            continue
        want = skeleton._parse_document(text)
        assert got.times.tobytes() == want.times.tobytes(), (case, kind)
        assert got.positions.tobytes() == want.positions.tobytes(), (case, kind)
        assert repr(got.sample_rate) == repr(want.sample_rate), (case, kind)
        accepted[kind] += 1
    # every kind of mutation gave files that the stream took and files it refused
    assert all(accepted.values()) and all(refused.values()), (accepted, refused)
