"""Labanotation data model and score file format.

A score is a set of columns, one per body part, each holding timed cells.
A cell's symbol is the direction/level the part holds at the cell's end;
the state applies on the half-open interval (start, start + duration], so
a task owns its ending state but not its starting one.

Score files are JSON with a canonical serialization: sorted keys, 6-decimal
floats, deterministic layout. ``parse_score(serialize_score(s)) == s`` for
any valid score whose times are 6-decimal representable.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

from .errors import OutOfRange, ParseError, ValidationError


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


@dataclass(frozen=True)
class LabanSymbol:
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

COLUMN_NAMES: tuple[str, ...] = (
    "LeftArm",
    "RightArm",
    "LeftUpperArm",
    "LeftForearm",
    "RightUpperArm",
    "RightForearm",
    "Head",
)

_EXCLUSIVE = {
    "LeftArm": ("LeftUpperArm", "LeftForearm"),
    "RightArm": ("RightUpperArm", "RightForearm"),
}


@dataclass(frozen=True)
class Cell:
    symbol: LabanSymbol
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class LabanColumn:
    name: str
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class LabanScore:
    columns: tuple[LabanColumn, ...]
    total_duration: float
    meta: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def column(self, name: str) -> LabanColumn | None:
        for col in self.columns:
            if col.name == name:
                return col
        return None


@dataclass(frozen=True)
class Violation:
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
    out: list[Violation] = []
    if not score.columns:
        out.append(Violation("no-columns", None, None, "score has no columns"))
    if not math.isfinite(score.total_duration):
        out.append(Violation("non-finite", None, None, f"total_duration {score.total_duration}"))
    names = [c.name for c in score.columns]
    for name in set(names):
        if names.count(name) > 1:
            out.append(Violation("duplicate-column", name, None, "column appears twice"))
    present = set(names)
    for whole, parts in _EXCLUSIVE.items():
        if whole in present and any(p in present for p in parts):
            out.append(
                Violation(
                    "arm-exclusive",
                    whole,
                    None,
                    f"{whole} cannot coexist with {', '.join(p for p in parts if p in present)}",
                )
            )
    for col in score.columns:
        if col.name not in COLUMN_NAMES:
            out.append(Violation("unknown-column", col.name, None, "not a known column name"))
        for i, cell in enumerate(col.cells):
            if cell.symbol.direction == Direction.Place and cell.symbol.level == Level.Middle:
                out.append(
                    Violation("place-middle", col.name, i, "(Place, Middle) is not a limb symbol")
                )
            if not (math.isfinite(cell.start) and math.isfinite(cell.duration)):
                out.append(
                    Violation("non-finite", col.name, i, f"start {cell.start}, duration {cell.duration}")
                )
            if cell.duration <= 0:
                out.append(Violation("nonpositive-duration", col.name, i, f"duration {cell.duration}"))
            if cell.start < 0:
                out.append(Violation("negative-start", col.name, i, f"start {cell.start}"))
            if cell.end > score.total_duration + 1e-9:
                out.append(
                    Violation(
                        "beyond-total", col.name, i,
                        f"cell ends at {cell.end} after total_duration {score.total_duration}",
                    )
                )
        for i in range(1, len(col.cells)):
            if col.cells[i].start <= col.cells[i - 1].start:
                out.append(Violation("start-order", col.name, i, "starts not increasing"))
        out.extend(
            Violation("overlap", col.name, j, f"cells {i} and {j} overlap")
            for i, j in _overlapping_pairs(col.cells)
        )
    return out


def _overlapping_pairs(cells: tuple[Cell, ...]) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of cells that overlap, sorted.

    Two cells overlap when the later-starting one (the lower index on equal
    starts) starts more than 1e-12 before the other ends. One sweep in start
    order keeps the cells still open at the current start; every one of them
    overlaps it, so the cost is the number of cells plus the number of pairs.
    Cells with a non-finite start or end take no part.
    """
    order = sorted(
        (i for i, c in enumerate(cells) if math.isfinite(c.start) and math.isfinite(c.end)),
        key=lambda i: cells[i].start,
    )
    pairs: list[tuple[int, int]] = []
    active: list[int] = []
    for j in order:
        start = cells[j].start
        active = [i for i in active if cells[i].end - 1e-12 > start]
        pairs.extend((min(i, j), max(i, j)) for i in active)
        active.append(j)
    pairs.sort()
    return pairs


def states_at(score: LabanScore, times: Iterable[float]) -> list[dict[str, LabanSymbol]]:
    """Symbols in force at each of a nondecreasing sequence of times, per column.

    A cell covers (start, start + duration]; at exactly a cell's start the
    previous cell (if any) still holds. Where cells share a time, the first
    covering one in column order wins. Columns with no covering cell are
    absent from a time's dict. One cursor per column sweeps the cells, which
    must be in increasing start order, as :func:`validate` requires.
    """
    columns = [
        (col.name, [c.symbol for c in col.cells], [c.start for c in col.cells],
         # tiny right-end slack absorbs float drift in start + duration
         [c.end + 1e-9 for c in col.cells])
        for col in score.columns
    ]
    cursors = [0] * len(columns)
    out: list[dict[str, LabanSymbol]] = []
    prev = -math.inf
    for t in times:
        if not 0 <= t <= score.total_duration + 1e-12:
            raise OutOfRange(f"t={t} outside [0, {score.total_duration}]")
        if t < prev:
            raise ValueError("states_at needs nondecreasing times")
        prev = t
        state: dict[str, LabanSymbol] = {}
        for c, (name, symbols, starts, ends) in enumerate(columns):
            k = cursors[c]
            while k < len(ends) and ends[k] < t:  # ends before t and every later time
                k += 1
            cursors[c] = k
            if k < len(ends) and starts[k] < t:
                state[name] = symbols[k]
        out.append(state)
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
        for i, cell in enumerate(col.cells):
            comma = "," if i + 1 < len(col.cells) else ""
            lines.append(
                '        {"dir": "%s", "duration": %s, "level": "%s", "start": %s}%s'
                % (cell.symbol.direction.value, _f6(cell.duration),
                   cell.symbol.level.value, _f6(cell.start), comma)
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
    if key not in obj:
        raise ParseError(where, f"missing key {key!r}")
    val = obj[key]
    if not isinstance(val, kinds):
        raise ParseError(f"{where}.{key}", f"unexpected type {type(val).__name__}")
    return val


def parse_score(text: str) -> LabanScore:
    """Parse and validate a score file. ParseError carries the location of
    syntax or token problems; semantic rule breaks raise ValidationError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg)
    if not isinstance(obj, dict):
        raise ParseError("$", "expected a JSON object")
    total = _require(obj, "total_duration", (int, float), "$")
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
            cwhere = f"{where}.cells[{i}]"
            if not isinstance(cell_obj, dict):
                raise ParseError(cwhere, "expected a cell object")
            dir_tok = _require(cell_obj, "dir", str, cwhere)
            lvl_tok = _require(cell_obj, "level", str, cwhere)
            try:
                direction = Direction(dir_tok)
            except ValueError:
                raise ParseError(f"{cwhere}.dir", f"unknown direction token {dir_tok!r}")
            try:
                level = Level(lvl_tok)
            except ValueError:
                raise ParseError(f"{cwhere}.level", f"unknown level token {lvl_tok!r}")
            start = _require(cell_obj, "start", (int, float), cwhere)
            duration = _require(cell_obj, "duration", (int, float), cwhere)
            cells.append(Cell(LabanSymbol(direction, level), float(start), float(duration)))
        columns.append(LabanColumn(name=name, cells=tuple(cells)))
    score = LabanScore(
        columns=tuple(columns),
        total_duration=float(total),
        meta=tuple(sorted((str(k), str(v)) for k, v in meta_obj.items())),
    )
    violations = validate(score)
    if violations:
        raise ValidationError(violations)
    return score


def load_score(path: str) -> LabanScore:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_score(fh.read())


def save_score(score: LabanScore, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_score(score))
