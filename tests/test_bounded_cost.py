"""Bounded cost on adversarial input: each family of inputs the CLI rejects
is run at sizes n and 4n, and what the run costs may grow about as fast as
the input, no faster. Time ratios are too noisy to assert, so the proxies
are deterministic: the number of violations in the error, the length of
the ``error:`` line, and the ``tracemalloc`` peak of the run."""

import gc
import json
import os
import tracemalloc

import pytest

from labanmotion import cli
from labanmotion.cli import main

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
