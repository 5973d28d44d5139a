import glob
import json
import math
import os

import numpy as np
import pytest

from labanmotion import laban
from labanmotion.errors import OutOfRange, ParseError, ValidationError
from labanmotion.laban import (
    Cell,
    Direction,
    LabanColumn,
    LabanScore,
    LabanSymbol,
    Level,
    SYMBOL_CODES,
    VALID_LIMB_SYMBOLS,
    Violation,
    column_violations,
    load_score,
    parse_score,
    serialize_score,
    states_at,
    validate,
)

from labanmotion.robot import decode_score_detailed, load_robot

from conftest import drift, random_score, states_brute_force, symbol_code

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
                (Cell(symbol_code(D.Forward, L.Middle), 0.0, 1.0), Cell(symbol_code(D.Place, L.Low), 1.0, 0.5)),
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
        columns=(LabanColumn("RightArm", (Cell(symbol_code(D.Place, L.Middle), 0.0, 1.0),)),),
        total_duration=1.0,
    )
    violations = validate(score)
    assert len(violations) == 1
    assert violations[0].rule == "place-middle"
    assert violations[0].column == "RightArm"
    assert violations[0].cell == 0


def test_validate_overlaps_one_per_cell():
    """Each overlapping cell is reported once, with the earlier-starting cell
    that ends last: three mutually overlapping cells give two violations of
    the three overlapping pairs."""
    cells = (Cell(symbol_code(D.Forward, L.Middle), 0.0, 2.0), Cell(symbol_code(D.Left, L.Middle), 0.5, 2.0),
             Cell(symbol_code(D.Right, L.Middle), 1.0, 2.0))
    col = LabanColumn("RightArm", cells)
    overlaps = [v for v in validate(LabanScore(columns=(col,), total_duration=3.0)) if v.rule == "overlap"]
    assert [(v.cell, v.detail) for v in overlaps] == [(1, "cells 0 and 1 overlap"), (2, "cells 1 and 2 overlap")]
    assert len(_overlaps_brute_force(col)) == 3  # (0,1), (0,2), (1,2)
    # the partner of a cell may come after it in the column
    col = LabanColumn("RightArm", cells[::-1])
    overlaps = [v for v in validate(LabanScore(columns=(col,), total_duration=3.0)) if v.rule == "overlap"]
    assert [(v.cell, v.detail) for v in overlaps] == [(1, "cells 0 and 1 overlap"), (2, "cells 1 and 2 overlap")]
    # a long first cell is the partner of every cell it runs over
    col = LabanColumn("RightArm", (Cell(symbol_code(D.Forward, L.High), 0.0, 3.0),) + cells[1:])
    overlaps = [v for v in validate(LabanScore(columns=(col,), total_duration=3.0)) if v.rule == "overlap"]
    assert [(v.cell, v.detail) for v in overlaps] == [(1, "cells 0 and 1 overlap"), (2, "cells 0 and 2 overlap")]


def test_validate_arm_exclusivity():
    score = LabanScore(
        columns=(
            LabanColumn("LeftArm", (Cell(symbol_code(D.Forward, L.Middle), 0.0, 1.0),)),
            LabanColumn("LeftForearm", (Cell(symbol_code(D.Forward, L.Middle), 0.0, 1.0),)),
        ),
        total_duration=1.0,
    )
    assert any(v.rule == "arm-exclusive" for v in validate(score))


def test_validate_no_columns():
    score = LabanScore(columns=(), total_duration=1.0)
    assert any(v.rule == "no-columns" for v in validate(score))


def test_validate_rejects_a_code_that_names_no_symbol():
    """A cell built in code, not parsed, may hold any value as its code; one
    that is not -1 or a limb symbol's code is a violation, not a wrong pose."""
    for code in (len(VALID_LIMB_SYMBOLS), 1.5, -2):
        score = LabanScore(columns=(LabanColumn("RightArm", (Cell(code, 0.0, 1.0),)),), total_duration=1.0)
        assert [(v.rule, v.cell, v.detail) for v in validate(score)] == [
            ("unknown-code", 0, f"code {code!r} names no symbol")]
        with pytest.raises(ValidationError):
            serialize_score(score)


def test_validate_cell_beyond_total():
    score = LabanScore(
        columns=(LabanColumn("Head", (Cell(symbol_code(D.Place, L.High), 0.0, 2.0),)),),
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
    assert [os.path.basename(path) for path in GOLDEN] == [
        f"golden_{name}_score.json" for name in ("backward", "frontal", "minimal", "split")]
    for path in GOLDEN:
        with open(path, "rb") as fh:
            data = fh.read()
        score = load_score(path)
        assert serialize_score(score).encode("utf-8") == data  # goldens are stored canonically
        assert parse_score(serialize_score(score)) == score


def test_randomized_roundtrip(rng):
    for _ in range(100):
        score = random_score(rng)
        assert validate(score) == []
        assert parse_score(serialize_score(score)) == score


FM, PL = SYMBOL_CODES[S(D.Forward, L.Middle)], SYMBOL_CODES[S(D.Place, L.Low)]


def test_symbol_codes():
    assert [SYMBOL_CODES[s] for s in VALID_LIMB_SYMBOLS] == list(range(26))
    assert SYMBOL_CODES[S(D.Place, L.Middle)] == -1
    assert len(SYMBOL_CODES) == 27


def _one_cell_text(dir_tok, lvl_tok, start) -> str:
    return json.dumps({"columns": [{"cells": [{"dir": dir_tok, "duration": 1.0, "level": lvl_tok, "start": start}],
                                    "name": "Head"}], "meta": {}, "total_duration": 1.0})


def test_every_token_pair_parses_to_its_code_on_both_paths(monkeypatch):
    """Each of the 27 (dir, level) token pairs gives the same cell code on
    the fast path (float times) as on the located path (an int start goes
    through ``_parse_cell``): the pair's SYMBOL_CODES entry, which is -1 for
    (Place, Middle), a place-middle violation. A column of all 26 codes
    serializes and parses back to the same codes."""
    pairs = [(d.value, lv.value) for d in Direction for lv in Level]
    assert len(pairs) == 27
    for dir_tok, lvl_tok in pairs:
        want = SYMBOL_CODES[S(Direction(dir_tok), Level(lvl_tok))]
        if (dir_tok, lvl_tok) == ("Place", "Middle"):
            assert want == -1
            for start in (0.0, 0):
                with pytest.raises(ValidationError) as exc:
                    parse_score(_one_cell_text(dir_tok, lvl_tok, start))
                assert [(v.rule, v.column, v.cell) for v in exc.value.violations] == [("place-middle", "Head", 0)]
            continue
        fast, located = (parse_score(_one_cell_text(dir_tok, lvl_tok, start)).columns[0].cells[0] for start in (0.0, 0))
        assert type(fast.code) is type(located.code) is int
        assert fast == located == Cell(want, 0.0, 1.0)
    # with validation left out, both paths hold (Place, Middle) as -1
    monkeypatch.setattr(laban, "validate", lambda score: [])
    for start in (0.0, 0):
        assert parse_score(_one_cell_text("Place", "Middle", start)).columns[0].cells == (Cell(-1, 0.0, 1.0),)
    monkeypatch.undo()
    cells = tuple(Cell(k, float(k), 1.0) for k in range(26))
    parsed = parse_score(serialize_score(LabanScore((LabanColumn("Head", cells),), 26.0)))
    assert [c.code for c in parsed.columns[0].cells] == list(range(26))


def test_states_at_half_open_rule():
    score = _one_column_score()
    # at exactly the second cell's start, the first cell's state still holds
    assert states_at(score, [1.0]).tolist() == [[FM]]
    assert states_at(score, [1.2]).tolist() == [[PL]]
    # closed right end at the score's total duration
    assert states_at(score, [1.5]).tolist() == [[PL]]
    # before any coverage: -1
    assert states_at(score, [0.0]).tolist() == [[-1]]


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
            assert (states == states[:1]).all()


def test_states_at_batched_times():
    score = _one_column_score()
    codes = states_at(score, [0.0, 0.5, 1.0, 1.0, 1.2, 1.5])
    assert codes.dtype == np.intp
    assert codes.tolist() == [[-1], [FM], [FM], [FM], [PL], [PL]]
    assert states_at(score, []).shape == (0, 1)
    with pytest.raises(OutOfRange):
        states_at(score, [0.5, 1.6])
    with pytest.raises(OutOfRange):
        states_at(score, [float("nan")])
    with pytest.raises(ValueError):
        states_at(score, [1.2, 1.0])


def _states_at_cursor(score, times):
    """Reference: one cursor per column sweeps the cells once; one
    {column: code} dict per time, uncovered columns absent."""
    columns = [
        (col.name, [c.code for c in col.cells], [c.start for c in col.cells],
         [c.end + drift(c.end, 1e-9) for c in col.cells])
        for col in score.columns
    ]
    cursors = [0] * len(columns)
    out = []
    prev = -math.inf
    for t in times:
        if not 0 <= t <= score.total_duration + drift(score.total_duration, 1e-12):
            raise OutOfRange(f"t={t} outside [0, {score.total_duration}]")
        if t < prev:
            raise ValueError("states_at needs nondecreasing times")
        prev = t
        state = {}
        for c, (name, codes, starts, ends) in enumerate(columns):
            k = cursors[c]
            while k < len(ends) and ends[k] < t:
                k += 1
            cursors[c] = k
            if k < len(ends) and starts[k] < t:
                state[name] = codes[k]
        out.append(state)
    return out


def _as_codes(score, states):
    """{column: code} dicts as states_at's (m, C) code rows."""
    return [[s.get(col.name, -1) for col in score.columns] for s in states]


def _drifting_score(rng):
    """Columns whose cells share boundaries up to float drift: each cell
    starts at the previous end, a gap later, or a drift of at most 1e-9
    either side of it."""
    columns = []
    for name in rng.choice(["LeftArm", "RightArm", "Head"], size=int(rng.integers(1, 4)), replace=False):
        cells, t = [], float(rng.integers(0, 3)) * 0.25
        for _ in range(int(rng.integers(1, 8))):
            code = int(rng.integers(0, len(VALID_LIMB_SYMBOLS)))
            dur = float(rng.integers(1, 40)) / 20.0 + float(rng.choice([0.0, 1e-9, -1e-9, 3e-10]))
            cells.append(Cell(code, t, dur))
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
        want = [states_brute_force(score, t) for t in times]
        assert _states_at_cursor(score, times) == want
        assert states_at(score, times).tolist() == _as_codes(score, want)


def test_states_at_matches_cursor_reference(rng):
    """Seeded valid scores, at every boundary (cell end), mid-cell time and
    exact start, and at 0 and total_duration."""
    for score in [random_score(rng) for _ in range(150)] + [_drifting_score(rng) for _ in range(150)]:
        cells = [c for col in score.columns for c in col.cells]
        times = [0.0, score.total_duration]
        times += [c.end for c in cells] + [c.start for c in cells] + [c.start + c.duration / 2 for c in cells]
        times = sorted(min(t, score.total_duration) for t in times)
        assert states_at(score, times).tolist() == _as_codes(score, _states_at_cursor(score, times))


def test_states_at_where_a_valid_column_ends_step_back():
    """A cell shorter than half an ulp of its start ends where it starts, so
    a valid column's ends can fall by up to 1e-12 from one cell to the next;
    the first cell that ends at or after t still decides."""
    col = LabanColumn("RightArm", (
        Cell(0, 0.0, 0.5), Cell(1, 0.5, 0.5 + 1e-13), Cell(2, 1.0, 1e-17), Cell(3, 1.0 + 2e-12, 0.5)))
    score = LabanScore(columns=(col,), total_duration=1.5 + 2e-12)
    assert validate(score) == []
    assert col.cells[2].end < col.cells[1].end
    times = [1.0, 1.0 + 1e-9, 1.00000000100005, 1.0000000010001, 1.0000000010002, 1.2]
    want = _as_codes(score, _states_at_cursor(score, times))
    assert states_at(score, times).tolist() == want
    assert [row[0] for row in want] == [1, 1, 1, 1, 3, 3]


def _error(call):
    try:
        call()
    except (OutOfRange, ValueError) as exc:
        return type(exc), str(exc)
    return None


def test_states_at_errors_match_cursor_reference(rng):
    """The first bad time decides, range before order: the same error and
    message as the cursor loop."""
    score = _one_column_score()
    pool = [0.0, 0.5, 1.0, 1.5, 1.5 + 1e-12, 1.6, -0.1, float("nan"), float("inf")]
    seen = set()
    for _ in range(300):
        times = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 6)))]
        want = _error(lambda: _states_at_cursor(score, times))
        assert _error(lambda: states_at(score, times)) == want
        seen.add(want and want[0])
    assert seen == {None, OutOfRange, ValueError}


def _overlaps_brute_force(col):
    """Every pair of cells compared: the overlapping pairs as violations in
    (i, j) order. Cells with a non-finite start or end take no part."""
    out = []
    for i in range(len(col.cells)):
        for j in range(i + 1, len(col.cells)):
            a, b = col.cells[i], col.cells[j]
            if not all(math.isfinite(x) for x in (a.start, a.end, b.start, b.end)):
                continue
            lo, hi = (a, b) if a.start <= b.start else (b, a)
            if hi.start < lo.end - drift(lo.end, 1e-12):
                out.append(Violation("overlap", col.name, j, f"cells {i} and {j} overlap"))
    return out


def _overlaps_per_cell(col):
    """Reference for the overlap rule, cell by cell: a cell with a finite
    start and end that starts more than the drift before the last end of the
    finite cells ahead of it in start order (the lower index first on equal
    starts) overlaps the first of them, in that order, to end there. One
    violation per such cell, in (i, j) order."""
    cells = col.cells
    finite = [i for i, c in enumerate(cells) if math.isfinite(c.start) and math.isfinite(c.end)]
    pairs = []
    for j in finite:
        ahead = sorted((i for i in finite if (cells[i].start, i) < (cells[j].start, j)),
                       key=lambda i: (cells[i].start, i))
        if ahead:
            last = max(cells[i].end for i in ahead)
            i = next(i for i in ahead if cells[i].end == last)
            if cells[j].start < last - drift(last, 1e-12):
                pairs.append((min(i, j), max(i, j)))
    return [Violation("overlap", col.name, j, f"cells {i} and {j} overlap") for i, j in sorted(pairs)]


def _assert_overlaps_within_pairwise(col, overlaps):
    """The overlap violations of a column against the pairwise reference:
    some exactly when the reference has some, each one of its pairs, in its
    order, and at most one fewer than the cells."""
    pairwise = _overlaps_brute_force(col)
    assert bool(overlaps) == bool(pairwise)
    rest = iter(pairwise)
    assert all(v in rest for v in overlaps), (overlaps, pairwise)  # a subsequence
    assert len(overlaps) <= max(len(col.cells) - 1, 0)


def test_validate_overlaps_match_pairwise_reference(rng):
    code = symbol_code(D.Forward, L.Middle)
    for _ in range(2000):
        n = int(rng.integers(0, 12))
        # starts on a coarse grid so equal starts, touching cells and cells
        # that overlap several others all occur; unsorted order
        starts = rng.integers(0, 10, size=n) / 4.0
        durations = rng.integers(1, 12, size=n) / 4.0 + rng.choice([0.0, 1e-12, -1e-12, 2e-12], size=n)
        # invalid durations too: on equal starts, which cell counts as the
        # earlier one decides whether they overlap
        durations = np.where(rng.random(n) < 0.15, rng.choice([0.0, 1e-13, -0.5], size=n), durations)
        cells = tuple(Cell(code, float(s), float(d)) for s, d in zip(starts, durations))
        col = LabanColumn("RightArm", cells)
        score = LabanScore(columns=(col,), total_duration=10.0)
        overlaps = [v for v in validate(score) if v.rule == "overlap"]
        assert overlaps == _overlaps_per_cell(col)
        _assert_overlaps_within_pairwise(col, overlaps)


def _abutting_score(rng, magnitude: float, overlap_us: int = 0) -> LabanScore:
    """Three columns of cells as a score file holds them: whole-microsecond
    starts and durations near ``magnitude`` seconds, each cell starting where
    the one before it ends in decimal (``overlap_us`` earlier), so that
    ``start + duration`` may round a float away from the next start."""
    columns, last = [], 0
    for name in ("LeftArm", "RightArm", "Head"):
        start, cells = int(magnitude * 1e6) + int(rng.integers(0, 10**6)), []
        for _ in range(int(rng.integers(2, 8))):
            duration = int(rng.integers(1, 10**7))
            cells.append(Cell(int(rng.integers(len(VALID_LIMB_SYMBOLS))), start / 1e6, duration / 1e6))
            start += duration - overlap_us
        columns.append(LabanColumn(name, tuple(cells)))
        last = max(last, start + overlap_us)
    return LabanScore(columns=tuple(columns), total_duration=last / 1e6)


def _assert_decodes_each_cell(score):
    """Each cell's code is in force at the key pose of its end, rounded to
    the microsecond, on a robot that maps every column."""
    decoded = decode_score_detailed(score, load_robot("frontal_7dof"))
    row = {t: i for i, t in enumerate(decoded.poses.times.tolist())}
    columns = decoded.robot.mapped_columns
    ends = {round(cell.end * 1e6) / 1e6 for col in score.columns for cell in col.cells}
    assert sorted(row) == sorted(ends)
    for col in score.columns:
        for cell in col.cells:
            assert decoded.codes[row[round(cell.end * 1e6) / 1e6], columns.index(col.name)] == cell.code


def test_a_cell_may_start_where_the_drifting_end_before_it_rounds():
    """start + duration of 6-decimal values can round a float past the next
    cell's start; that is drift, not an overlap, at any magnitude."""
    cells = (Cell(symbol_code(D.Forward, L.High), 50677.366994, 39865.610453),
             Cell(symbol_code(D.Left, L.Low), 90542.977447, 1.0))
    assert cells[0].end == 90542.97744700001 > cells[1].start
    score = LabanScore(columns=(LabanColumn("RightArm", cells),), total_duration=90543.977447)
    assert validate(score) == []
    assert states_at(score, [cells[0].end, 90543.977447]).tolist() == [[cells[0].code], [cells[1].code]]


@pytest.mark.parametrize("magnitude", [1e5, 1e6, 1e7, 1e9, 2.0**52 / 1e6 - 100.0],
                         ids=["1e5", "1e6", "1e7", "1e9", "2**52/1e6"])
def test_abutting_columns_validate_and_decode(rng, magnitude):
    """Seeded file-like columns whose cells abut validate and decode, each
    cell's code at its end, up to 2**52 / 1e6 s (where the microsecond
    rounding of key-pose times stops); a 1 µs overlap is still refused
    where 1 µs is many ulps."""
    for _ in range(30):
        score = _abutting_score(rng, magnitude)
        assert validate(score) == []
        _assert_decodes_each_cell(score)
        if magnitude <= 1e7:
            overlapping = _abutting_score(rng, magnitude, overlap_us=1)
            assert {v.rule for v in validate(overlapping)} == {"overlap"}


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
        columns=(LabanColumn("RightArm", (Cell(symbol_code(D.Forward, L.Middle), 0.0, 0.5),
                                          Cell(symbol_code(D.Left, L.Low), start, duration))),),
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
    # a value that is not a finite float is read as NaN
    want = {"start": "start nan, duration 1.0", "duration": "start 0.0, duration nan",
            "total_duration": "total_duration nan"}[field]
    assert [v.detail for v in exc.value.violations if v.rule == "non-finite"] == [want]


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


def _validate_per_cell(score):
    """Reference: the rules cell by cell, then start order, then overlaps
    cell by cell (:func:`_overlaps_per_cell`)."""
    out = []
    if not score.columns:
        out.append(Violation("no-columns", None, None, "score has no columns"))
    if not math.isfinite(score.total_duration):
        out.append(Violation("non-finite", None, None, f"total_duration {score.total_duration}"))
    names = [c.name for c in score.columns]
    for name in set(names):
        if names.count(name) > 1:
            out.append(Violation("duplicate-column", name, None, "column appears twice"))
    present = set(names)
    for whole, parts in (("LeftArm", ("LeftUpperArm", "LeftForearm")),
                         ("RightArm", ("RightUpperArm", "RightForearm"))):
        if whole in present and any(p in present for p in parts):
            out.append(Violation("arm-exclusive", whole, None,
                                 f"{whole} cannot coexist with {', '.join(p for p in parts if p in present)}"))
    for col in score.columns:
        if col.name not in ("LeftArm", "RightArm", "LeftUpperArm", "LeftForearm", "RightUpperArm",
                            "RightForearm", "Head"):
            out.append(Violation("unknown-column", col.name, None, "not a known column name"))
    for col in score.columns:
        for i, cell in enumerate(col.cells):
            if cell.code == symbol_code(D.Place, L.Middle):
                out.append(Violation("place-middle", col.name, i, "(Place, Middle) is not a limb symbol"))
            elif cell.code not in range(len(VALID_LIMB_SYMBOLS)):
                out.append(Violation("unknown-code", col.name, i, f"code {cell.code!r} names no symbol"))
            if not (math.isfinite(cell.start) and math.isfinite(cell.duration)):
                out.append(Violation("non-finite", col.name, i, f"start {cell.start}, duration {cell.duration}"))
            if cell.duration <= 0:
                out.append(Violation("nonpositive-duration", col.name, i, f"duration {cell.duration}"))
            if cell.start < 0:
                out.append(Violation("negative-start", col.name, i, f"start {cell.start}"))
            if cell.end > score.total_duration + drift(score.total_duration, 1e-9):
                out.append(Violation("beyond-total", col.name, i,
                                     f"cell ends at {cell.end} after total_duration {score.total_duration}"))
        for i in range(1, len(col.cells)):
            if col.cells[i].start <= col.cells[i - 1].start:
                out.append(Violation("start-order", col.name, i, "starts not increasing"))
        out.extend(_overlaps_per_cell(col))
    return out


# one fault put into a cell: (start, duration, code) -> the broken cell
_CELL_FAULTS = {
    "place-middle": lambda s, d, code: (s, d, symbol_code(D.Place, L.Middle)),
    "code-past-the-last": lambda s, d, code: (s, d, len(VALID_LIMB_SYMBOLS)),
    "fractional-code": lambda s, d, code: (s, d, code + 0.5),
    "nan-start": lambda s, d, code: (math.nan, d, code),
    "inf-start": lambda s, d, code: (math.inf, d, code),
    "minus-inf-start": lambda s, d, code: (-math.inf, d, code),
    "nan-duration": lambda s, d, code: (s, math.nan, code),
    "inf-duration": lambda s, d, code: (s, math.inf, code),
    "zero-duration": lambda s, d, code: (s, 0.0, code),
    "negative-duration": lambda s, d, code: (s, -0.5, code),
    "negative-start": lambda s, d, code: (-0.25 - s, d, code),
    "beyond-total": lambda s, d, code: (s, d + 20.0, code),
    "repeated-start": lambda s, d, code: (s - d, d, code),  # starts where the previous cell did, or before
}


def _malformed_score(rng):
    """A seeded score of one to three columns with faults put into some of
    their cells: every cell rule, starts out of order, unsorted columns and
    one long cell over the three cells after it."""
    columns = []
    for name in rng.choice(["LeftArm", "RightArm", "Head"], size=int(rng.integers(1, 4)), replace=False):
        cells, t = [], 0.0
        for _ in range(int(rng.integers(0, 9))):
            code = int(rng.integers(len(VALID_LIMB_SYMBOLS)))
            d = float(rng.integers(1, 6)) / 4.0
            start, dur = t + float(rng.integers(0, 2)) / 4.0, d
            if rng.random() < 0.25:
                start, dur, code = _CELL_FAULTS[str(rng.choice(list(_CELL_FAULTS)))](start, dur, code)
            cells.append(Cell(code, start, dur))
            t = start + d if math.isfinite(start) else t + d
        if len(cells) >= 4 and rng.random() < 0.3:  # the first cell runs over the next three
            first = cells[0]
            cells[0] = Cell(first.code, first.start, cells[3].start + 0.125 - first.start)
        if rng.random() < 0.2:
            cells = [cells[int(i)] for i in rng.permutation(len(cells))]
        columns.append(LabanColumn(str(name), tuple(cells)))
    return LabanScore(columns=tuple(columns), total_duration=float(rng.choice([6.0, 8.0, math.nan, math.inf])))


def test_validate_matches_per_cell_reference(rng):
    seen = set()
    for _ in range(2000):
        score = _malformed_score(rng)
        got = validate(score)
        assert got == _validate_per_cell(score)
        for col in score.columns:
            _assert_overlaps_within_pairwise(col, [v for v in got if v.rule == "overlap" and v.column == col.name])
        seen |= {v.rule for v in got}
    # a long cell over three later ones gives three overlaps with it
    long_cell = LabanColumn("RightArm", (Cell(symbol_code(D.Forward, L.High), 0.0, 4.0),) + tuple(
        Cell(symbol_code(D.Left, L.Low), float(k), 0.5) for k in (1, 2, 3)))
    score = LabanScore(columns=(long_cell,), total_duration=4.0)
    assert validate(score) == _validate_per_cell(score)
    assert [(v.rule, v.cell) for v in validate(score)] == [("overlap", 1), ("overlap", 2), ("overlap", 3)]
    # starts out of order, and an overlap of cells 0 and 2 that no two
    # neighbouring cells show
    unsorted = LabanColumn("RightArm", (Cell(symbol_code(D.Forward, L.High), 0.0, 3.0), Cell(symbol_code(D.Left, L.Low), 5.0, -4.0),
                                        Cell(symbol_code(D.Left, L.High), 1.0, 0.5)))
    score = LabanScore(columns=(unsorted,), total_duration=6.0)
    assert validate(score) == _validate_per_cell(score)
    assert [(v.rule, v.cell) for v in validate(score)] == [
        ("nonpositive-duration", 1), ("start-order", 2), ("overlap", 2)]
    # the end of a cell may pass total_duration by 1e-9, no more
    for duration, rules in ((1.0 + 1e-10, []), (1.0 + 1e-8, ["beyond-total"])):
        score = LabanScore(columns=(LabanColumn("Head", (Cell(symbol_code(D.Place, L.High), 0.0, duration),)),),
                           total_duration=1.0)
        assert [v.rule for v in validate(score)] == rules
        assert validate(score) == _validate_per_cell(score)
    assert seen >= {"place-middle", "unknown-code", "non-finite", "nonpositive-duration", "negative-start", "beyond-total",
                    "start-order", "overlap"}


def test_validate_reports_column_names_before_cells():
    """The column-name rules (:func:`column_violations`, which robot
    descriptions keep too) come before every cell rule."""
    faulty = (Cell(symbol_code(D.Forward, L.High), 0.0, -1.0),)
    score = LabanScore(columns=(LabanColumn("RightArm", faulty), LabanColumn("Tail", faulty),
                                LabanColumn("RightForearm", faulty)), total_duration=2.0)
    assert [(v.rule, v.column) for v in validate(score)] == [
        ("arm-exclusive", "RightArm"), ("unknown-column", "Tail"), ("nonpositive-duration", "RightArm"),
        ("nonpositive-duration", "Tail"), ("nonpositive-duration", "RightForearm")]
    assert validate(score) == _validate_per_cell(score)
    assert column_violations(["RightArm", "Tail", "RightForearm"]) == validate(score)[:2]
    assert column_violations(["LeftArm", "RightUpperArm", "RightForearm", "Head"]) == []


def _token_score(cell: dict) -> str:
    """A score whose second cell has ``cell``'s tokens."""
    cells = [{"dir": "Left", "duration": 0.5, "level": "Low", "start": 0.0}, {"duration": 1.0, "start": 0.5, **cell}]
    return json.dumps({"columns": [{"cells": cells, "name": "RightArm"}], "meta": {}, "total_duration": 2.0})


@pytest.mark.parametrize("cell,error,message", [
    pytest.param({"dir": "Up", "level": "High"}, ParseError,
                 "$.columns[0].cells[1].dir: unknown direction token 'Up'", id="bad-dir"),
    pytest.param({"dir": "Forward", "level": "Mid"}, ParseError,
                 "$.columns[0].cells[1].level: unknown level token 'Mid'", id="bad-level"),
    pytest.param({"dir": "Up", "level": "Mid"}, ParseError,
                 "$.columns[0].cells[1].dir: unknown direction token 'Up'", id="both-bad-reports-dir"),
    pytest.param({"dir": 3, "level": "High"}, ParseError,
                 "$.columns[0].cells[1].dir: unexpected type int", id="non-string-dir"),
    pytest.param({"dir": "Up", "level": ["High"]}, ParseError,
                 "$.columns[0].cells[1].level: unexpected type list", id="unhashable-level-before-bad-dir"),
    pytest.param({"level": "High"}, ParseError,
                 "$.columns[0].cells[1]: missing key 'dir'", id="missing-dir"),
    pytest.param({"dir": "Place", "level": "Middle"}, ValidationError,
                 "RightArm[1]: place-middle: (Place, Middle) is not a limb symbol", id="place-middle"),
])
def test_parse_token_errors(cell, error, message):
    with pytest.raises(error) as exc:
        parse_score(_token_score(cell))
    assert type(exc.value) is error
    assert str(exc.value) == message
