import glob
import json
import os

import numpy as np
import pytest

from labanmotion.errors import OutOfRange, ParseError, ValidationError
from labanmotion.laban import (
    Cell,
    Direction,
    LabanColumn,
    LabanScore,
    LabanSymbol,
    Level,
    VALID_LIMB_SYMBOLS,
    Violation,
    parse_score,
    serialize_score,
    states_at,
    validate,
)

from conftest import random_score

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = sorted(glob.glob(os.path.join(DATA, "golden_*.json")))

S = LabanSymbol
D = Direction
L = Level


def _one_column_score():
    return LabanScore(
        columns=(
            LabanColumn(
                "RightArm",
                (Cell(S(D.Forward, L.Middle), 0.0, 1.0), Cell(S(D.Place, L.Low), 1.0, 0.5)),
            ),
        ),
        total_duration=1.5,
    )


def test_symbol_space():
    assert len(Direction) == 9
    assert len(Level) == 3
    assert len(VALID_LIMB_SYMBOLS) == 26


def test_validate_well_formed():
    assert validate(_one_column_score()) == []


def test_validate_place_middle():
    score = LabanScore(
        columns=(LabanColumn("RightArm", (Cell(S(D.Place, L.Middle), 0.0, 1.0),)),),
        total_duration=1.0,
    )
    violations = validate(score)
    assert len(violations) == 1
    assert violations[0].rule == "place-middle"
    assert violations[0].column == "RightArm"
    assert violations[0].cell == 0


def test_validate_overlaps_one_per_pair():
    score = LabanScore(
        columns=(
            LabanColumn(
                "RightArm",
                (
                    Cell(S(D.Forward, L.Middle), 0.0, 2.0),
                    Cell(S(D.Left, L.Middle), 0.5, 2.0),
                    Cell(S(D.Right, L.Middle), 1.0, 2.0),
                ),
            ),
        ),
        total_duration=3.0,
    )
    overlaps = [v for v in validate(score) if v.rule == "overlap"]
    assert len(overlaps) == 3  # (0,1), (0,2), (1,2)


def test_validate_arm_exclusivity():
    score = LabanScore(
        columns=(
            LabanColumn("LeftArm", (Cell(S(D.Forward, L.Middle), 0.0, 1.0),)),
            LabanColumn("LeftForearm", (Cell(S(D.Forward, L.Middle), 0.0, 1.0),)),
        ),
        total_duration=1.0,
    )
    assert any(v.rule == "arm-exclusive" for v in validate(score))


def test_validate_no_columns():
    score = LabanScore(columns=(), total_duration=1.0)
    assert any(v.rule == "no-columns" for v in validate(score))


def test_validate_cell_beyond_total():
    score = LabanScore(
        columns=(LabanColumn("Head", (Cell(S(D.Place, L.High), 0.0, 2.0),)),),
        total_duration=1.0,
    )
    assert any(v.rule == "beyond-total" for v in validate(score))


def test_serialize_deterministic():
    score = _one_column_score()
    assert serialize_score(score) == serialize_score(score)
    clone = _one_column_score()
    assert serialize_score(score) == serialize_score(clone)


def test_serialize_rejects_invalid():
    score = LabanScore(columns=(), total_duration=1.0)
    with pytest.raises(ValidationError):
        serialize_score(score)


def test_parse_unknown_direction_token():
    text = """{
      "columns": [{"cells": [{"dir": "FORWRD", "duration": 1.0, "level": "Middle", "start": 0.0}],
                   "name": "RightArm"}],
      "meta": {},
      "total_duration": 1.0
    }"""
    with pytest.raises(ParseError) as exc:
        parse_score(text)
    assert "FORWRD" in str(exc.value)
    assert "dir" in exc.value.location


def test_parse_syntax_error_has_location():
    with pytest.raises(ParseError) as exc:
        parse_score("{\n  broken\n}")
    assert "line" in exc.value.location


def test_parse_empty_columns_is_validation_error():
    with pytest.raises(ValidationError):
        parse_score('{"columns": [], "meta": {}, "total_duration": 1.0}')


def test_golden_files_roundtrip():
    assert GOLDEN, "golden files missing"
    for path in GOLDEN:
        text = open(path).read()
        score = parse_score(text)
        assert serialize_score(score) == text  # goldens are stored canonically
        assert parse_score(serialize_score(score)) == score


def test_randomized_roundtrip(rng):
    for _ in range(100):
        score = random_score(rng)
        assert validate(score) == []
        assert parse_score(serialize_score(score)) == score


def test_states_at_half_open_rule():
    score = _one_column_score()
    # at exactly the second cell's start, the first cell's state still holds
    assert states_at(score, [1.0])[0]["RightArm"] == S(D.Forward, L.Middle)
    assert states_at(score, [1.2])[0]["RightArm"] == S(D.Place, L.Low)
    # closed right end at the score's total duration
    assert states_at(score, [1.5])[0]["RightArm"] == S(D.Place, L.Low)
    # before any coverage: absent
    assert states_at(score, [0.0])[0] == {}


def test_states_at_out_of_range():
    score = _one_column_score()
    with pytest.raises(OutOfRange):
        states_at(score, [-0.1])
    with pytest.raises(OutOfRange):
        states_at(score, [1.6])


def test_states_piecewise_constant(rng):
    for _ in range(20):
        score = random_score(rng)
        boundaries = sorted(
            {c.start for col in score.columns for c in col.cells}
            | {c.end for col in score.columns for c in col.cells}
        )
        for a, b in zip(boundaries, boundaries[1:]):
            ts = [a + (b - a) * f for f in (0.25, 0.5, 0.75)]
            states = states_at(score, [t for t in ts if t <= score.total_duration])
            for s in states[1:]:
                assert s == states[0]


def test_states_at_batched_times():
    score = _one_column_score()
    fm, pl = S(D.Forward, L.Middle), S(D.Place, L.Low)
    assert states_at(score, [0.0, 0.5, 1.0, 1.0, 1.2, 1.5]) == [
        {}, {"RightArm": fm}, {"RightArm": fm}, {"RightArm": fm}, {"RightArm": pl}, {"RightArm": pl},
    ]
    assert states_at(score, []) == []
    with pytest.raises(OutOfRange):
        states_at(score, [0.5, 1.6])
    with pytest.raises(OutOfRange):
        states_at(score, [float("nan")])
    with pytest.raises(ValueError):
        states_at(score, [1.2, 1.0])


def _states_brute_force(score, t):
    """Per-time scan: the first cell of each column that covers t."""
    out = {}
    for col in score.columns:
        for cell in col.cells:
            if cell.start < t <= cell.end + 1e-9:
                out[col.name] = cell.symbol
                break
    return out


def _drifting_score(rng):
    """Columns whose cells share boundaries up to float drift: each cell
    starts at the previous end, a gap later, or a drift of at most 1e-9
    either side of it."""
    columns = []
    for name in rng.choice(["LeftArm", "RightArm", "Head"], size=int(rng.integers(1, 4)), replace=False):
        cells, t = [], float(rng.integers(0, 3)) * 0.25
        for _ in range(int(rng.integers(1, 8))):
            sym = VALID_LIMB_SYMBOLS[int(rng.integers(0, len(VALID_LIMB_SYMBOLS)))]
            dur = float(rng.integers(1, 40)) / 20.0 + float(rng.choice([0.0, 1e-9, -1e-9, 3e-10]))
            cells.append(Cell(sym, t, dur))
            t = cells[-1].end + float(rng.choice([0.0, 0.0, 0.25, 5e-10, -5e-10, 1e-12]))
        columns.append(LabanColumn(str(name), tuple(cells)))
    total = max(c.end for col in columns for c in col.cells) + float(rng.choice([0.0, 0.5]))
    return LabanScore(columns=tuple(columns), total_duration=total)


def test_states_at_matches_per_time_scan(rng):
    scores = [random_score(rng) for _ in range(100)] + [_drifting_score(rng) for _ in range(200)]
    for score in scores:
        edges = [x for col in score.columns for c in col.cells for x in (c.start, c.end)]
        times = [0.0, score.total_duration]
        for x in edges:
            times += [x, x - 2e-9, x - 5e-10, x + 5e-10, x + 1e-9, x + 2e-9]
        times += list(rng.uniform(0.0, score.total_duration, size=20))
        times = sorted(t for t in times if 0.0 <= t <= score.total_duration + 1e-12)
        assert states_at(score, times) == [_states_brute_force(score, t) for t in times]


def _overlaps_brute_force(col):
    """Every pair of cells compared: the overlap violations in (i, j) order."""
    out = []
    for i in range(len(col.cells)):
        for j in range(i + 1, len(col.cells)):
            a, b = col.cells[i], col.cells[j]
            lo, hi = (a, b) if a.start <= b.start else (b, a)
            if hi.start < lo.end - 1e-12:
                out.append(Violation("overlap", col.name, j, f"cells {i} and {j} overlap"))
    return out


def test_validate_overlaps_match_pairwise_reference(rng):
    sym = S(D.Forward, L.Middle)
    for _ in range(300):
        n = int(rng.integers(0, 12))
        # starts on a coarse grid so equal starts, touching cells and cells
        # that overlap several others all occur; unsorted order
        starts = rng.integers(0, 10, size=n) / 4.0
        durations = rng.integers(1, 12, size=n) / 4.0 + rng.choice([0.0, 1e-12, -1e-12, 2e-12], size=n)
        # invalid durations too: on equal starts, which cell counts as the
        # earlier one decides whether they overlap
        durations = np.where(rng.random(n) < 0.15, rng.choice([0.0, 1e-13, -0.5], size=n), durations)
        cells = tuple(Cell(sym, float(s), float(d)) for s, d in zip(starts, durations))
        col = LabanColumn("RightArm", cells)
        score = LabanScore(columns=(col,), total_duration=10.0)
        assert [v for v in validate(score) if v.rule == "overlap"] == _overlaps_brute_force(col)


@pytest.mark.parametrize("start,duration,total", [
    (float("nan"), 1.0, 2.0),
    (0.0, float("nan"), 2.0),
    (float("inf"), 1.0, 2.0),
    (0.0, float("inf"), 2.0),
    (float("-inf"), 1.0, 2.0),
    (0.0, 1.0, float("nan")),
    (0.0, 1.0, float("inf")),
])
def test_validate_rejects_non_finite(start, duration, total):
    score = LabanScore(
        columns=(LabanColumn("RightArm", (Cell(S(D.Forward, L.Middle), 0.0, 0.5),
                                          Cell(S(D.Left, L.Low), start, duration))),),
        total_duration=total,
    )
    assert "non-finite" in {v.rule for v in validate(score)}
    with pytest.raises(ValidationError):
        serialize_score(score)


@pytest.mark.parametrize("field,token", [
    ("duration", "NaN"), ("start", "Infinity"), ("start", "-Infinity"), ("total_duration", "Infinity"),
    pytest.param("total_duration", "1" + "0" * 400, id="total_duration-401-digits"),
    pytest.param("start", "1" + "0" * 400, id="start-401-digits"),
    pytest.param("duration", "-1" + "0" * 400, id="duration-minus-401-digits"),
])
def test_parse_rejects_non_finite(field, token):
    obj = {"columns": [{"cells": [{"dir": "Forward", "duration": 1.0, "level": "Middle", "start": 0.0}],
                        "name": "RightArm"}], "meta": {}, "total_duration": 2.0}
    target = obj if field == "total_duration" else obj["columns"][0]["cells"][0]
    target[field] = "@"
    text = json.dumps(obj).replace('"@"', token)
    with pytest.raises(ValidationError) as exc:
        parse_score(text)
    assert any(v.rule == "non-finite" for v in exc.value.violations)


@pytest.mark.parametrize("field", ["start", "duration", "total_duration"])
@pytest.mark.parametrize("token", ["true", "false", '"1.0"', "null"])
def test_parse_rejects_non_numbers(field, token):
    obj = {"columns": [{"cells": [{"dir": "Forward", "duration": 1.0, "level": "Middle", "start": 0.0}],
                        "name": "RightArm"}], "meta": {}, "total_duration": 2.0}
    target = obj if field == "total_duration" else obj["columns"][0]["cells"][0]
    target[field] = "@"
    with pytest.raises(ParseError) as exc:
        parse_score(json.dumps(obj).replace('"@"', token))
    assert exc.value.location == (f"$.{field}" if field == "total_duration" else f"$.columns[0].cells[0].{field}")
