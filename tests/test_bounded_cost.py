"""Bounded cost on adversarial input: each family of inputs the CLI rejects
is run at sizes n and 4n, and what the run costs may grow about as fast as
the input, no faster. Time ratios are too noisy to assert, so the proxies
are deterministic: the number of violations in the error, the length of
the ``error:`` line, and the ``tracemalloc`` peak of the run. A valid
input that goes unused, a motion dictionary none of whose entries a decode
looks up, is held to the same bound on its peak, and so is reading a valid
skeleton clip, whose peak also stays below a few times its text."""

import gc
import itertools
import json
import os
import tracemalloc

import pytest

from labanmotion import cli
from labanmotion.cli import main
from labanmotion.laban import CODE_TOKENS
from labanmotion.robot import load_robot
from labanmotion.skeleton import parse_sequence, serialize_sequence, synth_motion
from labanmotion.trajectory import PATH_SAMPLES, parse_dictionary

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_frontal_score.json")
N = 250  # 4N keeps every cell index at three digits, so lines grow with the count alone
GROWTH = 4.5


def _score(columns, total: float) -> str:
    """Score text of (name, [(start, duration), ...]) columns, every cell Forward Middle."""
    return json.dumps({"columns": [{"cells": [{"dir": "Forward", "duration": d, "level": "Middle", "start": s}
                                              for s, d in cells], "name": name} for name, cells in columns],
                       "meta": {}, "total_duration": total})


def _robot(column_map: dict) -> str:
    with open(os.path.join(os.path.dirname(cli.__file__), "robots", "frontal_7dof.json")) as fh:
        obj = json.load(fh)
    obj["column_map"] = column_map
    return json.dumps(obj)


# family -> (n -> (score text or None for the golden score, robot text or None
# for frontal_7dof), n -> violations in the error)
FAMILIES = {
    # every cell overlaps every other: n (n - 1) / 2 pairs, n - 1 overlapping cells
    "mutually-overlapping-cells": (lambda n: (_score([("RightArm", [(i * 1e-3, 10.0) for i in range(n)])], 20.0),
                                              None), lambda n: n - 1),
    "neighbour-overlaps": (lambda n: (_score([("RightArm", [(float(i), 1.5) for i in range(n)])], n + 1.0), None),
                           lambda n: n - 1),
    "cells-in-reverse-order": (lambda n: (_score([("RightArm", [(n - 1.0 - i, 0.5) for i in range(n)])], n + 0.0),
                                          None), lambda n: n - 1),
    "unknown-columns": (lambda n: (_score([(f"Tail{i}", [(0.0, 1.0)]) for i in range(n)], 1.0), None),
                        lambda n: n),
    "duplicate-columns": (lambda n: (_score([("RightArm", [(0.0, 1.0)])] * n, 1.0), None), lambda n: 1),
    "robot-with-unknown-segments": (lambda n: (None, _robot({"LeftArm": ["left_arm/0"], "Head": ["head/0"],
                                                             "RightArm": [f"nowhere/{i}" for i in range(n)]})),
                                    lambda n: n),
}


def _decode_cost(tmp_path, capsys, score, robot):
    """(violations, error-line length, tracemalloc peak) of a decode that must exit 1."""
    argv = ["decode", GOLDEN, "--robot", "frontal_7dof", "-o", str(tmp_path / "t.csv")]
    if score is not None:
        (tmp_path / "score.json").write_text(score)
        argv[1] = str(tmp_path / "score.json")
    if robot is not None:
        (tmp_path / "robot.json").write_text(robot)
        argv[3] = str(tmp_path / "robot.json")
    capsys.readouterr()
    gc.collect()  # no garbage of an earlier run is collected in this one
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err[:500]
    assert not (tmp_path / "t.csv").exists()
    return err.count("; ") + 1, len(err), peak


@pytest.mark.parametrize("family", list(FAMILIES))
def test_cost_grows_with_the_input(tmp_path, capsys, family):
    build, violations = FAMILIES[family]
    _decode_cost(tmp_path, capsys, *build(N))  # once first, so one-time allocations count in neither size
    small = _decode_cost(tmp_path, capsys, *build(N))
    big = _decode_cost(tmp_path, capsys, *build(4 * N))
    assert (small[0], big[0]) == (violations(N), violations(4 * N))
    for what, a, b in zip(("violations", "error-line length", "tracemalloc peak"), small, big):
        assert b <= GROWTH * a, f"{what}: {a} at n={N}, {b} at n={4 * N}"


def _dictionary(n: int) -> str:
    """A motion dictionary of n entries for frontal_7dof, every path at zero:
    each leaves all three columns at Backward Low, a state the golden score
    never holds, so a decode of that score looks none of them up."""
    joints = sorted(load_robot("frontal_7dof").joint_names())
    path = [{"count": 1, "joints": joints, "samples": [[0.0] * len(joints)] * PATH_SAMPLES}]
    start = ",".join(f"{col}=Backward.Low" for col in ("Head", "LeftArm", "RightArm"))
    ends = itertools.product(CODE_TOKENS, repeat=3)
    entries = {f"{start}->" + ",".join(f"{col}={d}.{l}" for col, (d, l) in zip(("Head", "LeftArm", "RightArm"), end)):
               path for end in itertools.islice(ends, n)}
    return json.dumps({"samples_per_path": PATH_SAMPLES, "tau": 10.0, "entries": entries})


def _dict_decode_peak(tmp_path, text: str) -> int:
    """tracemalloc peak of a decode of the golden score with the dictionary ``text``."""
    (tmp_path / "dict.json").write_text(text)
    gc.collect()
    tracemalloc.start()
    try:
        rc = main(["decode", GOLDEN, "--robot", "frontal_7dof", "--dict", str(tmp_path / "dict.json"),
                   "-o", str(tmp_path / "d.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


def test_unused_dictionary_cost_grows_with_its_entries(tmp_path):
    assert main(["decode", GOLDEN, "--robot", "frontal_7dof", "-o", str(tmp_path / "plain.csv")]) == 0
    assert len(parse_dictionary(_dictionary(4 * N)).entries) == 4 * N
    _dict_decode_peak(tmp_path, _dictionary(N))  # once first, so one-time allocations count in neither size
    small = _dict_decode_peak(tmp_path, _dictionary(N))
    big = _dict_decode_peak(tmp_path, _dictionary(4 * N))
    # no entry was used: the trajectory is the one written without the dictionary
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert big <= GROWTH * small, f"tracemalloc peak: {small} at n={N}, {big} at n={4 * N}"


def _parse_peak(text: str) -> int:
    """tracemalloc peak of reading the skeleton text ``text``."""
    gc.collect()
    tracemalloc.start()
    try:
        seq = parse_sequence(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) > 0
    return peak


def test_reading_a_clip_holds_no_tree_of_it():
    """Frames are read one at a time into the arrays: the peak is the arrays
    and their checks, below 3 times the text (a tree of the whole document,
    a Python object per number, list and object, is about 6 times)."""
    texts = [serialize_sequence(synth_motion({"pattern": "static", "duration": n / 30.0})) for n in (N, 4 * N)]
    _parse_peak(texts[0])  # once first, so one-time allocations count in neither size
    small, big = (_parse_peak(text) for text in texts)
    for n, text, peak in zip((N, 4 * N), texts, (small, big)):
        assert peak < 3 * len(text), f"tracemalloc peak {peak} for {len(text)} bytes of text at n={n}"
    assert big <= GROWTH * small, f"tracemalloc peak: {small} at n={N}, {big} at n={4 * N}"
