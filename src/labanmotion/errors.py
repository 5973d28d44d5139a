"""Exception types and the input contract: one file reader, one JSON reader, one number rule, one range check."""

from __future__ import annotations

import json
import sys


class LabanMotionError(Exception):
    """Base class for all library errors."""


class MalformedFrame(LabanMotionError):
    """A skeleton frame is missing a joint or carries invalid geometry."""

    def __init__(self, index: int, joint: str, detail: str = ""):
        self.index = index
        self.joint = joint
        msg = f"frame {index}: joint {joint}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TimeOrderError(LabanMotionError):
    """Timestamps are not strictly increasing."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        msg = f"non-increasing timestamp at index {index}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InsufficientData(LabanMotionError):
    """Too few frames or samples for the requested operation."""


class DegeneratePose(LabanMotionError):
    """Joint geometry too degenerate to define a direction or frame."""


class BadDescriptor(LabanMotionError):
    """Unknown or malformed synthetic-motion descriptor."""


class BadInput(LabanMotionError):
    """Numeric input violates a precondition (e.g. non-unit vector)."""


class ParseError(LabanMotionError):
    """Syntactic or token-level error in an input file."""

    def __init__(self, location: str, detail: str):
        self.location = location
        self.detail = detail
        super().__init__(f"{location}: {detail}")


class ValidationError(LabanMotionError):
    """A structurally parsed object violates semantic rules."""

    def __init__(self, violations):
        self.violations = [violations] if isinstance(violations, str) else list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class OutOfRange(LabanMotionError):
    """Query time outside the score's duration."""


class NoKeyFrames(LabanMotionError):
    """Key-frame detection produced nothing to encode."""


class MissingColumn(LabanMotionError):
    """A robot segment's source column never appears in the score."""

    def __init__(self, segment: str, column: str):
        self.segment = segment
        self.column = column
        super().__init__(f"segment {segment}: column {column} never appears in score")


class ShapeError(LabanMotionError):
    """Mismatched sample counts or joint sets."""


def read_text(path: str) -> str:
    """The text of the file at ``path``; ParseError naming the file if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_json(text: str) -> dict:
    """The JSON object that ``text`` holds; ParseError at "line L, column C" for
    bad syntax, at "$" for an over-long integer, too deep nesting or a non-object."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError("$", str(exc)) from None
    if not isinstance(obj, dict):
        raise ParseError("$", "expected a JSON object")
    return obj


# the types json.loads gives numbers; an exact type test also rules out bool
_NUMBER_TYPES = {int, float}
_MAX = sys.float_info.max


def json_numbers(values) -> bool:
    """True if every one of ``values`` is a JSON number; one pass."""
    return set(map(type, values)) <= _NUMBER_TYPES


def finite(value, what: str, lo: float = -_MAX, hi: float = _MAX, *, strict: bool = False, error=BadInput) -> float:
    """``value`` as a float if it is a number, not a bool, in [lo, hi] (above lo
    if ``strict``); else ``error("<what> must be a finite number ..., got <value>")``.
    Comparing before converting fails NaN, infinities and too large integers."""
    try:
        ok = type(value) is not bool and (lo < value if strict else lo <= value) and value <= hi
    except TypeError:  # not a number
        ok = False
    if not ok:
        if hi < _MAX:
            bound = f" in {'(' if strict else '['}{lo:g}, {hi:g}]"
        else:
            bound = f" {'>' if strict else '>='} {lo:g}" if lo > -_MAX else ""
        raise error(f"{what} must be a finite number{bound}, got {value!r}")
    return float(value)
