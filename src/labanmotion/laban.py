"""Labanotation vocabulary, data model and score file format.

This module is the one owner of the vocabulary that observation (the
encoder) and mapping (the robot) share: the symbols and their codes
(:data:`SYMBOL_CODES`) and tokens (:data:`CODE_TOKENS`), the band centers
(:data:`SECTOR_CENTER_DEG`, :data:`LEVEL_ELEVATION_DEG`), the spherical
direction formula (:func:`direction_vector`) and its inverse
(:func:`direction_angles`), each code's band-center direction
(:data:`CODE_VECTORS`), and the column layouts
(:data:`ARM_COLUMNS`, :data:`SPLIT_COLUMNS`) with the rules on column names
(:func:`column_violations`).

A score is a set of columns, one per body part, each holding timed cells.
A cell's symbol is the direction/level the part holds at the cell's end;
the state applies on the half-open interval (start, start + duration], so
a task owns its ending state but not its starting one.

A cell holds its symbol as a code (:class:`Cell`): the symbol's index in
``VALID_LIMB_SYMBOLS``, or -1 for (Place, Middle) (:data:`SYMBOL_CODES`).
:func:`validate` checks each column in one pass over its cells; only a
column that fails gets a second pass that names each broken rule, with one
overlap per overlapping cell, not per pair. :func:`states_at` answers with
codes.

Score files are JSON with a canonical serialization: sorted keys, 6-decimal
floats, deterministic layout. ``parse_score(serialize_score(s)) == s`` for
any valid score whose times are 6-decimal representable.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import BadInput, OutOfRange, ParseError, ValidationError, finite, json_numbers, read_json, read_text


class Direction(str, Enum):
    Place = "Place"
    Forward = "Forward"
    RightForward = "RightForward"
    Right = "Right"
    RightBackward = "RightBackward"
    Backward = "Backward"
    LeftBackward = "LeftBackward"
    Left = "Left"
    LeftForward = "LeftForward"


class Level(str, Enum):
    High = "High"
    Middle = "Middle"
    Low = "Low"


# The package's records are NamedTuples: read-only fields, value equality
# and a hash of the field tuple, without the per-class source that
# @dataclass compiles at import. A record with a cached property is a
# NamedTuple of its fields plus a subclass without __slots__, whose
# instances have the dict that cached_property stores into.
class LabanSymbol(NamedTuple):
    direction: Direction
    level: Level

    def __str__(self) -> str:
        return f"{self.direction.value}.{self.level.value}"


# The 26 symbols a limb column may carry: 8 azimuths x 3 levels, plus
# straight up / straight down. (Place, Middle) names no direction.
VALID_LIMB_SYMBOLS: tuple[LabanSymbol, ...] = tuple(
    LabanSymbol(d, l)
    for d in Direction
    for l in Level
    if not (d == Direction.Place and l == Level.Middle)
)

# symbol -> code: its index in VALID_LIMB_SYMBOLS, -1 for (Place, Middle)
SYMBOL_CODES: dict[LabanSymbol, int] = {
    **{LabanSymbol(d, l): -1 for d in Direction for l in Level},
    **{s: k for k, s in enumerate(VALID_LIMB_SYMBOLS)},
}
# (dir, level) tokens of a score file -> their symbol's code, for all 27 pairs
_TOKEN_CODES: dict[tuple[str, str], int] = {(s.direction.value, s.level.value): k for s, k in SYMBOL_CODES.items()}
# the codes a limb cell may hold
_LIMB_CODES: frozenset[int] = frozenset(range(len(VALID_LIMB_SYMBOLS)))
# entry k: the tokens of the symbol of code k
CODE_TOKENS: tuple[tuple[str, str], ...] = tuple((s.direction.value, s.level.value) for s in VALID_LIMB_SYMBOLS)

# Band centers in degrees: each direction's azimuth, counterclockwise from
# forward (toward left), and each level's elevation above the horizontal.
SECTOR_CENTER_DEG: dict[Direction, float] = {
    Direction.Forward: 0.0,
    Direction.LeftForward: 45.0,
    Direction.Left: 90.0,
    Direction.LeftBackward: 135.0,
    Direction.Backward: 180.0,
    Direction.RightBackward: -135.0,
    Direction.Right: -90.0,
    Direction.RightForward: -45.0,
}
LEVEL_ELEVATION_DEG: dict[Level, float] = {
    Level.High: 45.0,
    Level.Middle: 0.0,
    Level.Low: -45.0,
}


def direction_vector(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Unit body-frame direction (forward, left, up) at an azimuth and an
    elevation in degrees."""
    th, ph = math.radians(elevation_deg), math.radians(azimuth_deg)
    return np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), math.sin(th)])


def direction_angles(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth and elevation arrays in degrees of (n, 3) unit directions, the
    inverse of :func:`direction_vector`. asin and atan2 are ``math``'s, mapped
    over list columns: numpy's may differ in the last bit from per-value math;
    np.degrees multiplies by the factor math.degrees does."""
    fx, ly, uz = directions.T
    # fmin/fmax pass NaN by as Python's min/max do
    elevation = np.degrees(list(map(math.asin, np.fmax(-1.0, np.fmin(1.0, uz)).tolist())))
    azimuth = np.degrees(list(map(math.atan2, ly.tolist(), fx.tolist())))
    return azimuth, elevation


# row k: the direction at the center of the band of the symbol of code k;
# the Place symbols point exactly up and down
CODE_VECTORS: np.ndarray = np.array([
    [0.0, 0.0, 1.0 if s.level == Level.High else -1.0] if s.direction == Direction.Place
    else direction_vector(SECTOR_CENTER_DEG[s.direction], LEVEL_ELEVATION_DEG[s.level])
    for s in VALID_LIMB_SYMBOLS
])
CODE_VECTORS.flags.writeable = False

# Column layouts: whole arms, or upper arm and forearm per side; both have the head.
ARM_COLUMNS: tuple[str, ...] = ("LeftArm", "RightArm", "Head")
SPLIT_COLUMNS: tuple[str, ...] = ("LeftUpperArm", "LeftForearm", "RightUpperArm", "RightForearm", "Head")
COLUMN_NAMES: frozenset[str] = frozenset(ARM_COLUMNS + SPLIT_COLUMNS)

_EXCLUSIVE = {
    "LeftArm": ("LeftUpperArm", "LeftForearm"),
    "RightArm": ("RightUpperArm", "RightForearm"),
}


class Cell(NamedTuple):
    code: int  # the symbol's SYMBOL_CODES entry
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class LabanColumn(NamedTuple):
    name: str
    cells: tuple[Cell, ...]


class _ScoreFields(NamedTuple):
    columns: tuple[LabanColumn, ...]
    total_duration: float
    meta: tuple[tuple[str, str], ...] = ()


class LabanScore(_ScoreFields):
    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """What :func:`validate` returns, found at its first call: a score
        does not change, so parsing and then decoding it checks it once."""
        return tuple(_violations(self))


class Violation(NamedTuple):
    """One broken rule: which column/cell, which rule, and what happened."""

    rule: str
    column: str | None
    cell: int | None
    detail: str

    def __str__(self) -> str:
        where = self.column or "<score>"
        if self.cell is not None:
            where += f"[{self.cell}]"
        return f"{where}: {self.rule}: {self.detail}"


def validate(score: LabanScore) -> list[Violation]:
    """All rule violations in the score; empty means the score is valid."""
    return list(score.violations)


def _violations(score: LabanScore) -> list[Violation]:
    out: list[Violation] = []
    if not score.columns:
        out.append(Violation("no-columns", None, None, "score has no columns"))
    if not math.isfinite(score.total_duration):
        out.append(Violation("non-finite", None, None, f"total_duration {score.total_duration}"))
    names = [c.name for c in score.columns]
    out += [Violation("duplicate-column", name, None, "column appears twice")
            for name, n in Counter(names).items() if n > 1]  # in order of first appearance
    out.extend(column_violations(names))
    for col in score.columns:
        if not _cells_pass(col, score.total_duration):
            out.extend(_column_violations(col, score.total_duration))
    return out


def column_violations(names: Sequence[str]) -> list[Violation]:
    """The rules on column names that a score's columns and a robot's
    ``column_map`` keys both keep: per side, no whole-arm column together
    with an upper-arm or forearm column (arm-exclusive); then per name in
    order, a known column (unknown-column)."""
    present = set(names)
    out = [Violation("arm-exclusive", whole, None,
                     f"{whole} cannot coexist with {', '.join(p for p in parts if p in present)}")
           for whole, parts in _EXCLUSIVE.items() if whole in present and any(p in present for p in parts)]
    out += [Violation("unknown-column", name, None, "not a known column name")
            for name in names if name not in COLUMN_NAMES]
    return out


# float drift the time rules forgive at t: |t|·2**-50 (4-8 ulps; start + duration
# drifts at most 2), at least 1e-12 s (overlap, states_at's range) or 1e-9 s (ends)
_DRIFT = 2.0**-50


def _cells_pass(col: LabanColumn, total: float) -> bool:
    """Whether every cell passes the cell rules and starts after the previous
    cell ends: one pass over the cells, which :func:`_column_violations`
    reports on only when it fails. A start or duration that is not finite
    makes a NaN or infinite end."""
    prev_start = prev_end = -math.inf
    limit = total + max(1e-9, abs(total) * _DRIFT)
    for code, start, duration in col.cells:
        end = start + duration
        if not (code in _LIMB_CODES and duration > 0 and start >= 0 and end < math.inf and end <= limit
                and start > prev_start  # the overlap slack, max(1e-12, drift), as two tests: the first is cheap
                and (prev_end - 1e-12 <= start or prev_end - abs(prev_end) * _DRIFT <= start)):
            return False
        prev_start, prev_end = start, end
    return True


def _column_violations(col: LabanColumn, total: float) -> list[Violation]:
    """The cell rules of one column in one pass over its cells: per cell in
    cell order its broken rules, then start-order, then overlap.

    Overlaps: in start order (lower index first on equal starts), a finite
    cell that starts more than the drift (:data:`_DRIFT`) before the running
    maximum of the earlier finite cells' ends overlaps the first cell that
    reached that maximum. Each such cell gives that one pair, so n cells
    give at most n - 1 overlaps, sorted. NaN compares False.
    """
    name, cells, limit = col.name, col.cells, total + max(1e-9, abs(total) * _DRIFT)
    out: list[Violation] = []
    for i, cell in enumerate(cells):
        start, duration = cell.start, cell.duration
        if cell.code == -1:
            out.append(Violation("place-middle", name, i, "(Place, Middle) is not a limb symbol"))
        elif cell.code not in _LIMB_CODES:  # only a cell built in code, not one parsed
            out.append(Violation("unknown-code", name, i, f"code {cell.code!r} names no symbol"))
        if not (math.isfinite(start) and math.isfinite(duration)):
            out.append(Violation("non-finite", name, i, f"start {start}, duration {duration}"))
        if duration <= 0:
            out.append(Violation("nonpositive-duration", name, i, f"duration {duration}"))
        if start < 0:
            out.append(Violation("negative-start", name, i, f"start {start}"))
        if cell.end > limit:
            out.append(Violation("beyond-total", name, i, f"cell ends at {cell.end} after total_duration {total}"))
    out.extend(Violation("start-order", name, i, "starts not increasing")
               for i in range(1, len(cells)) if cells[i].start <= cells[i - 1].start)
    pairs: list[tuple[int, int]] = []
    reach, first = -math.inf, -1
    for j in sorted((i for i, c in enumerate(cells) if math.isfinite(c.start) and math.isfinite(c.end)),
                    key=lambda i: cells[i].start):
        if cells[j].start < reach - max(1e-12, abs(reach) * _DRIFT):
            pairs.append((min(first, j), max(first, j)))
        if cells[j].end > reach:
            reach, first = cells[j].end, j
    pairs.sort()
    out.extend(Violation("overlap", name, j, f"cells {i} and {j} overlap") for i, j in pairs)
    return out


def states_at(score: LabanScore, times: Iterable[float]) -> np.ndarray:
    """Codes of the symbols in force at each of a nondecreasing sequence of
    times: an (m, C) intp array, column c for ``score.columns[c]``, -1 where
    no cell of the column covers the time.

    A cell covers (start, start + duration]; at exactly a cell's start the
    previous cell (if any) still holds. The candidate cell at t is the first
    whose end plus its drift (:data:`_DRIFT`) is not before t, and it covers
    t if it starts before t; in a score that passes :func:`validate` that is
    the first covering cell in column order. One ``searchsorted`` per column
    finds it, over the running maximum of the ends, since a valid column's
    ends may still step back by up to the drift. Times out of [0,
    total_duration] plus its drift raise OutOfRange, decreasing times
    ValueError; the first bad time decides.
    """
    times = list(times)
    prev = -math.inf
    limit = score.total_duration + max(1e-12, abs(score.total_duration) * _DRIFT)
    for x in times:
        if not 0 <= x <= limit:
            raise OutOfRange(f"t={x} outside [0, {score.total_duration}]")
        if x < prev:
            raise ValueError("states_at needs nondecreasing times")
        prev = x
    t = np.array(times, dtype=float)
    out = np.empty((len(times), len(score.columns)), dtype=np.intp)
    for c, col in enumerate(score.columns):
        codes, starts, durations = zip(*col.cells) if col.cells else ((), (), ())
        ends = np.array(starts, dtype=float) + durations  # Cell.end, the same IEEE adds
        # the first cell whose end is not before t; one past the last, a
        # sentinel cell that starts at +inf and so covers nothing
        first = np.searchsorted(np.maximum.accumulate(ends + np.maximum(1e-9, np.abs(ends) * _DRIFT)), t).tolist()
        starts, codes = starts + (math.inf,), codes + (-1,)
        out[:, c] = [codes[k] if starts[k] < x else -1 for k, x in zip(first, times)]
    return out


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _f6(x: float) -> str:
    return f"{x:.6f}"


def serialize_score(score: LabanScore) -> str:
    """Canonical text: sorted keys, 6-decimal floats, stable layout."""
    violations = validate(score)
    if violations:
        raise ValidationError(violations)
    lines = ["{"]
    lines.append('  "columns": [')
    for ci, col in enumerate(score.columns):
        lines.append("    {")
        lines.append('      "cells": [')
        for i, (code, start, duration) in enumerate(col.cells):
            comma = "," if i + 1 < len(col.cells) else ""
            dir_tok, lvl_tok = CODE_TOKENS[code]
            lines.append(
                '        {"dir": "%s", "duration": %s, "level": "%s", "start": %s}%s'
                % (dir_tok, _f6(duration), lvl_tok, _f6(start), comma)
            )
        lines.append("      ],")
        lines.append(f'      "name": "{col.name}"')
        lines.append("    }" + ("," if ci + 1 < len(score.columns) else ""))
    lines.append("  ],")
    meta_items = sorted(score.meta)
    meta_body = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in meta_items)
    lines.append(f'  "meta": {{{meta_body}}},')
    lines.append(f'  "total_duration": {_f6(score.total_duration)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(obj: dict, key: str, kinds, where: str):
    """``obj[key]`` if it is one of ``kinds``; ``float`` means a JSON number, read as a
    float, or NaN if it has no finite float value, which :func:`validate` reports."""
    if key not in obj:
        raise ParseError(where, f"missing key {key!r}")
    val = obj[key]
    if not (json_numbers([val]) if kinds is float else isinstance(val, kinds)):
        raise ParseError(f"{where}.{key}", f"unexpected type {type(val).__name__}")
    if kinds is not float:
        return val
    try:
        return finite(val, key)
    except BadInput:
        return math.nan


def _parse_cell(cell_obj, where: str) -> Cell:
    """One cell object, each check naming its location: the object, ``dir``
    and ``level`` present and strings, a known direction, a known level,
    then ``start`` and ``duration``."""
    if not isinstance(cell_obj, dict):
        raise ParseError(where, "expected a cell object")
    dir_tok = _require(cell_obj, "dir", str, where)
    lvl_tok = _require(cell_obj, "level", str, where)
    try:
        Direction(dir_tok)
    except ValueError:
        raise ParseError(f"{where}.dir", f"unknown direction token {dir_tok!r}") from None
    try:
        Level(lvl_tok)
    except ValueError:
        raise ParseError(f"{where}.level", f"unknown level token {lvl_tok!r}") from None
    start = _require(cell_obj, "start", float, where)
    return Cell(_TOKEN_CODES[dir_tok, lvl_tok], start, _require(cell_obj, "duration", float, where))


def parse_score(text: str) -> LabanScore:
    """Parse and validate a score file. ParseError carries the location of
    syntax or token problems; semantic rule breaks raise ValidationError."""
    obj = read_json(text)
    total = _require(obj, "total_duration", float, "$")
    meta_obj = obj.get("meta", {})
    if not isinstance(meta_obj, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta_obj.items()
    ):
        raise ParseError("$.meta", "meta must map strings to strings")
    cols_obj = _require(obj, "columns", list, "$")
    columns = []
    for ci, col_obj in enumerate(cols_obj):
        where = f"$.columns[{ci}]"
        if not isinstance(col_obj, dict):
            raise ParseError(where, "expected a column object")
        name = _require(col_obj, "name", str, where)
        cells_obj = _require(col_obj, "cells", list, where)
        cells = []
        for i, cell_obj in enumerate(cells_obj):
            # one lookup for the code and two finite floats take the common
            # case; anything else goes through the checks that name the fault
            try:
                code = _TOKEN_CODES[cell_obj["dir"], cell_obj["level"]]
                start, duration = cell_obj["start"], cell_obj["duration"]
            except (KeyError, TypeError):  # TypeError: not an object, or an unhashable token
                code = None
            if (code is not None and type(start) is float and type(duration) is float
                    and math.isfinite(start) and math.isfinite(duration)):
                cells.append(Cell(code, start, duration))
            else:
                cells.append(_parse_cell(cell_obj, f"{where}.cells[{i}]"))
        columns.append(LabanColumn(name=name, cells=tuple(cells)))
    score = LabanScore(
        columns=tuple(columns),
        total_duration=total,
        meta=tuple(sorted((str(k), str(v)) for k, v in meta_obj.items())),
    )
    violations = validate(score)
    if violations:
        raise ValidationError(violations)
    return score


def load_score(path: str) -> LabanScore:
    return parse_score(read_text(path))


def save_score(score: LabanScore, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_score(score))
