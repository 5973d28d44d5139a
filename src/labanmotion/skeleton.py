"""Skeleton sequences: loading, validation, resampling, body frame, synthesis.

The skeleton file format is JSON:

    {"sample_rate_hint": 30.0,
     "frames": [{"t": 0.0, "joints": {"WristLeft": [x, y, z], ...}}, ...]}

Coordinates are meters in an arbitrary rigid world frame; all direction
encoding downstream goes through the person-anchored body frame that
:func:`body_frame` returns as a plain array of axes, so the world frame
never matters.

In memory a sequence is two arrays, ``times`` (n,) and ``positions``
(n, 12, 3) with joints in ``ALL_JOINTS`` order, so parsing, validation,
resampling and the body frame run as array operations over all frames.
Reading a file holds its text and these arrays but no JSON tree of it:
frames are decoded one at a time and their numbers go straight into the
arrays. The same walk names a file's first fault, so an invalid file costs
what a valid one does; only text that is not one JSON object goes to
:func:`~labanmotion.errors.read_json`, for the line and column of its error.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from enum import Enum

import numpy as np

from .errors import (
    BadDescriptor,
    BadInput,
    DegeneratePose,
    InsufficientData,
    LabanMotionError,
    MalformedFrame,
    ParseError,
    TimeOrderError,
    finite,
    json_numbers,
    read_json,
    read_text,
)
from .laban import LEVEL_ELEVATION_DEG, SECTOR_CENTER_DEG, Direction, Level, direction_vector


class JointName(str, Enum):
    SpineBase = "SpineBase"
    SpineShoulder = "SpineShoulder"
    Neck = "Neck"
    Head = "Head"
    ShoulderLeft = "ShoulderLeft"
    ShoulderRight = "ShoulderRight"
    ElbowLeft = "ElbowLeft"
    ElbowRight = "ElbowRight"
    WristLeft = "WristLeft"
    WristRight = "WristRight"
    HandLeft = "HandLeft"
    HandRight = "HandRight"


# Fixed parent relation; SpineBase is the root.
PARENT: dict[JointName, JointName | None] = {
    JointName.SpineBase: None,
    JointName.SpineShoulder: JointName.SpineBase,
    JointName.Neck: JointName.SpineShoulder,
    JointName.Head: JointName.Neck,
    JointName.ShoulderLeft: JointName.SpineShoulder,
    JointName.ShoulderRight: JointName.SpineShoulder,
    JointName.ElbowLeft: JointName.ShoulderLeft,
    JointName.ElbowRight: JointName.ShoulderRight,
    JointName.WristLeft: JointName.ElbowLeft,
    JointName.WristRight: JointName.ElbowRight,
    JointName.HandLeft: JointName.WristLeft,
    JointName.HandRight: JointName.WristRight,
}

ALL_JOINTS: tuple[JointName, ...] = tuple(JointName)
JOINT_INDEX: dict[JointName, int] = {j: k for k, j in enumerate(ALL_JOINTS)}
# largest uniform grid that resampling, synthesis and trajectories build
# (about 5.5 h at 100 Hz, 16 MB per array column); more raises BadInput
MAX_SAMPLES = 2_000_000

_JOINT_KEYS: tuple[str, ...] = tuple(j.value for j in ALL_JOINTS)
# every joint after SpineBase, so read as positions[:, 1:]
_CHILDREN: tuple[JointName, ...] = tuple(j for j in ALL_JOINTS if PARENT[j] is not None)
_PARENT_IDX = [JOINT_INDEX[PARENT[j]] for j in _CHILDREN]


def stacked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the leading ones.

    Written as a stacked matmul so that each product is the same BLAS dot
    that ``a @ b`` computes for one pair of vectors: batched and single-frame
    results agree bit for bit, which ``np.sum(a * b, -1)`` does not promise.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def stacked_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis; equals ``np.linalg.norm`` per vector."""
    return np.sqrt(stacked_dot(a, a))


class SkeletonSequence:
    """Joint positions over time.

    ``times`` is (n,) seconds, strictly increasing. ``positions`` is
    (n, 12, 3) meters, joints in ``ALL_JOINTS`` order. ``sample_rate`` is
    the rate when the timing is known to be uniform at it, else None;
    :func:`resample` sets it.
    """

    def __init__(self, times: np.ndarray, positions: np.ndarray, sample_rate: float | None = None):
        self.times = times
        self.positions = positions
        self.sample_rate = sample_rate

    def __len__(self) -> int:
        return len(self.times)

    def positions_of(self, joint: JointName) -> np.ndarray:
        """(n, 3) view of one joint's positions over time."""
        return self.positions[:, JOINT_INDEX[joint]]


# stands in for a missing joint until the geometry check names it
_ABSENT = (math.nan, math.nan, math.nan)
_STRUCTURE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _number_arrays(ts: list, triples: list) -> tuple[np.ndarray, np.ndarray]:
    """(times, flat coordinates) of timestamps and joint triples.

    Raises one of ``_STRUCTURE_ERRORS`` unless every timestamp is a JSON
    number and every triple is three JSON numbers.
    """
    if not json_numbers(ts):
        raise TypeError("non-numeric timestamp")
    if set(map(len, triples)) - {3}:
        raise ValueError("joints are not [x, y, z] triples")
    coords = list(itertools.chain.from_iterable(triples))
    # the float conversion accepts numeric strings and bools; the type scan does not
    if not json_numbers(coords):
        raise TypeError("non-numeric coordinate")
    return np.array(ts, dtype=float), np.array(coords, dtype=float)


def _frame_fault(i: int, t, triples: list) -> LabanMotionError | None:
    """The first fault of frame ``i`` under :func:`_number_arrays`, None if it
    has none: each triple in joint order, then ``t``."""
    for key, triple in zip(_JOINT_KEYS, triples):
        try:
            _number_arrays((), [triple])
        except _STRUCTURE_ERRORS:
            return MalformedFrame(i, key, "bad coordinate triple")
    try:
        _number_arrays([t], ())
        return None
    except _STRUCTURE_ERRORS:
        pass
    try:  # the range check refuses every value the number rule does, and words the error
        finite(t, "timestamp", error=functools.partial(ParseError, f"frames[{i}].t"))
    except ParseError as fault:
        return fault


def _geometry_masks(times: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(timed, located, apart): per frame a finite timestamp, per joint finite
    coordinates, per child joint (``_CHILDREN`` order) a place off its parent."""
    timed = np.isfinite(times)
    located = np.isfinite(positions).all(axis=2)
    with np.errstate(invalid="ignore", over="ignore"):
        # the children are every joint after the first, a view; the parents'
        # gather takes the difference in place
        d = positions[:, _PARENT_IDX]
        np.subtract(positions[:, 1:], d, out=d)
        apart = stacked_dot(d, d) > 0.0
    return timed, located, apart


def _check_geometry(times: np.ndarray, positions: np.ndarray, missing: set, unread: bool) -> None:
    """Raise for the first frame with a non-finite timestamp, a missing (its
    ``(frame, joint)`` on ``missing``) or non-finite joint, or a joint on its
    parent (joints in enum order). With ``unread`` set, a frame that cannot be
    read follows these, and they are held to that frame's own ``t`` rule: a
    non-finite timestamp fails :func:`finite`, whose message gives the value."""
    timed, located, apart = _geometry_masks(times, positions)
    bad = ~timed | ~located.all(axis=1) | ~apart.all(axis=1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if not timed[i]:
        if unread:
            finite(float(times[i]), "timestamp", error=functools.partial(ParseError, f"frames[{i}].t"))
        raise ParseError(f"frames[{i}].t", "non-finite timestamp")
    if not located[i].all():
        joint = _JOINT_KEYS[int(np.argmin(located[i]))]
        raise MalformedFrame(i, joint, "missing" if (i, joint) in missing else "non-finite coordinate")
    raise MalformedFrame(i, _CHILDREN[int(np.argmin(apart[i]))].value, "coincides with parent")


def _uniform_rate(times: np.ndarray, hint) -> float | None:
    """The hinted rate if it is a number > 0 and every timestamp step
    matches it to a microsecond; any other hint is ignored."""
    try:
        rate = finite(hint, "sample_rate_hint", 0.0, strict=True)
    except BadInput:
        return None
    return None if np.any(np.abs(np.diff(times) - 1.0 / rate) > 1e-6) else rate


def load_sequence(path: str) -> SkeletonSequence:
    """Load and validate a skeleton sequence file (see :func:`parse_sequence`)."""
    return parse_sequence(read_text(path))


def parse_sequence(text: str) -> SkeletonSequence:
    """Parse and validate skeleton JSON text.

    Every error names the first bad frame in file order: ParseError for bad
    JSON, a frame without a ``joints`` object, or a missing, non-numeric or
    non-finite ``t``; MalformedFrame for a bad triple, a missing or
    non-finite joint, or a joint on its parent; TimeOrderError for a
    non-increasing ``t``. ``sample_rate`` is ``sample_rate_hint`` when the
    timestamps are uniform at that rate, else None.

    The root object is walked key by key and its ``frames`` frame by frame
    (:func:`_read_frames`), so no tree of the whole document is built. Other
    root keys are decoded and dropped; a repeated key keeps its last value,
    as in ``json.loads``. A syntax error outranks every other fault; text that
    is not one JSON object is handed to :func:`read_json`, which names it.
    """
    skip = _WHITESPACE.match
    frames = hint = None
    try:
        idx = skip(text, 0).end()
        if text[idx] != "{":
            raise ValueError("expected an object")
        idx = skip(text, idx + 1).end()
        last = text[idx] == "}"
        while not last:
            key, idx = _DECODE(text, idx)
            if type(key) is not str:
                raise ValueError("expected a key")
            idx = skip(text, idx).end()
            if text[idx] != ":":
                raise ValueError("expected ':'")
            idx = skip(text, idx + 1).end()
            if key == "frames" and text[idx] == "[":
                frames, idx = _read_frames(text, idx)
            else:
                value, idx = _DECODE(text, idx)
                if key == "frames":
                    frames = None
                elif key == "sample_rate_hint":
                    hint = value
            idx = skip(text, idx).end()
            last = text[idx] != ","
            if not last:
                idx = skip(text, idx + 1).end()
        if text[idx] != "}" or skip(text, idx + 1).end() != len(text):
            raise ValueError("expected one object")
    # bad syntax, a text cut off (IndexError), too deep nesting
    except (ValueError, IndexError, RecursionError):
        read_json(text)
        raise  # a syntax fault that json.loads does not see: a bug
    if frames is None:
        raise ParseError("$", "expected object with a 'frames' list")
    times, positions, missing, fault = frames
    _check_geometry(times, positions, missing, fault is not None)
    if fault is not None:
        raise fault
    late = times[1:] <= times[:-1]
    if late.any():
        raise TimeOrderError(int(np.argmax(late)) + 1)
    return SkeletonSequence(times, positions, _uniform_rate(times, hint))


_WHITESPACE = re.compile(r"[ \t\n\r]*")  # between JSON tokens, as json.loads skips it
# json.loads' scanner on the value at an index: the same numbers, bit for bit
_DECODE = json.JSONDecoder().raw_decode
_JOINTS_OF = operator.itemgetter(*_JOINT_KEYS)
# frames whose numbers become arrays at once; until then each holds about 2 KB
# of Python lists and floats
_CHUNK = 64


def _convert(ts: list, triples: list, first: int) -> tuple[np.ndarray, np.ndarray, LabanMotionError | None]:
    """(times, flat coordinates, None) of the pending frames ``first``,
    ``first + 1``, ...; if one fails :func:`_number_arrays`, the arrays of the
    frames before it and its error. The error is made outside any handler,
    so it holds no traceback into the chunk's lists."""
    try:
        return (*_number_arrays(ts, triples), None)
    except _STRUCTURE_ERRORS:
        pass
    n = len(_JOINT_KEYS)
    for k, t in enumerate(ts):
        fault = _frame_fault(first + k, t, triples[k * n:(k + 1) * n])
        if fault is not None:
            return (*_number_arrays(ts[:k], triples[:k * n]), fault)
    raise AssertionError("a chunk fails the number rule and none of its frames does")


def _read_frames(text: str, idx: int) -> tuple[tuple[np.ndarray, np.ndarray, set, LabanMotionError | None], int]:
    """Read the array that opens at ``text[idx]`` one frame at a time.

    Returns (times, positions, missing, fault) and the index after the array.
    ``fault`` is the error of the first frame that is not an object with a
    ``joints`` object of JSON-number triples and a JSON-number ``t``, None if
    every frame is; the arrays hold the frames before it. A missing joint
    reads as NaN, with its ``(frame, joint)`` on ``missing``. A frame's
    objects die once its numbers are converted, ``_CHUNK`` frames at a time;
    after a fault, frames are only decoded.
    """
    skip = _WHITESPACE.match
    n = len(_JOINT_KEYS)
    time_chunks, coord_chunks, ts, triples = [np.empty(0)], [np.empty(0)], [], []
    missing, fault, first = set(), None, 0  # first: the frame index of ts[0]
    idx = skip(text, idx + 1).end()
    last = text[idx] == "]"
    while not last:
        frame, idx = _DECODE(text, idx)
        idx = skip(text, idx).end()
        last = text[idx] != ","
        if fault is None:
            try:
                triples += _JOINTS_OF(frame["joints"])
                ts.append(frame["t"])
            except _STRUCTURE_ERRORS:  # read it key by key; its numbers are checked with its chunk's
                i = first + len(ts)
                del triples[len(ts) * n:]  # the joints of a frame without a t
                joints = frame.get("joints") if isinstance(frame, dict) else None
                if isinstance(joints, dict):
                    missing.update((i, key) for key in _JOINT_KEYS if key not in joints)
                    triples += [joints.get(key, _ABSENT) for key in _JOINT_KEYS]
                    ts.append(frame.get("t"))
                else:
                    fault = ParseError(f"frames[{i}]", "missing 'joints' object")
            if last or len(ts) == _CHUNK or fault is not None:
                times, coords, earlier = _convert(ts, triples, first)
                time_chunks.append(times)
                coord_chunks.append(coords)
                fault = earlier or fault
                first += len(ts)
                ts, triples = [], []
        if not last:
            idx = skip(text, idx + 1).end()
    if text[idx] != "]":
        raise ValueError("expected ',' or ']' after a frame")
    positions = np.concatenate(coord_chunks).reshape(-1, n, 3)
    return (np.concatenate(time_chunks), positions, missing, fault), idx + 1


def serialize_sequence(seq: SkeletonSequence) -> str:
    """Canonical text form; numbers keep full precision (repr round-trip)."""
    lines = ["{"]
    if seq.sample_rate is None:
        lines.append('  "sample_rate_hint": null,')
    else:
        lines.append(f'  "sample_rate_hint": {float(seq.sample_rate)!r},')
    lines.append('  "frames": [')
    names = sorted(_JOINT_KEYS)
    rows = seq.positions[:, [_JOINT_KEYS.index(k) for k in names]].tolist()
    for i, (t, row) in enumerate(zip(seq.times.tolist(), rows)):
        joints = ", ".join('"%s": [%r, %r, %r]' % (name, *p) for name, p in zip(names, row))
        comma = "," if i + 1 < len(rows) else ""
        lines.append(f'    {{"t": {float(t)!r}, "joints": {{{joints}}}}}{comma}')
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_sequence(seq: SkeletonSequence, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_sequence(seq))


def _check_sample_count(steps: float, span: float, rate: float) -> None:
    """BadInput unless ``steps`` (a span times a rate) stays below
    :data:`MAX_SAMPLES`; call it before anything is allocated."""
    if not steps < MAX_SAMPLES:  # False for NaN
        raise BadInput(f"a {span:g} s span at {rate:g} Hz needs more than {MAX_SAMPLES} samples")


def uniform_grid(t0: float, t1: float, rate: float) -> np.ndarray:
    """Times ``t0 + i / rate`` from ``t0`` through ``t1``."""
    # the microsecond slack keeps the final time on the grid even when
    # 6-decimal quantization left the span a hair under a whole step count
    steps = (t1 - t0) * rate + 1e-6 * rate + 1e-9
    _check_sample_count(steps, t1 - t0, rate)
    return t0 + np.arange(int(math.floor(steps)) + 1) / rate


def resample(seq: SkeletonSequence, rate: float) -> SkeletonSequence:
    """Resample to a uniform grid from the first to the last timestamp.

    Positions are interpolated linearly per coordinate, clamping at the ends.
    Idempotent when the input is already uniform at the requested rate.
    """
    finite(rate, "resample rate", 0.0, strict=True)
    if len(seq) < 2:
        raise InsufficientData("resample needs at least 2 frames")
    ts = seq.times
    grid = uniform_grid(float(ts[0]), float(ts[-1]), rate)
    coords = seq.positions.reshape(len(ts), -1)
    out = np.column_stack([np.interp(grid, ts, coords[:, c]) for c in range(coords.shape[1])])
    return SkeletonSequence(grid, out.reshape(grid.shape + seq.positions.shape[1:]), float(rate))


_MIN_SPAN = 1e-6  # meters; below this the pose cannot define a frame
_DEGENERATE = ("zero spine length", "zero shoulder span", "shoulders parallel to spine", "non-finite body frame")
_SPINE_BASE, _SPINE_SHOULDER, _SHOULDER_LEFT, _SHOULDER_RIGHT = (
    JOINT_INDEX[j]
    for j in (JointName.SpineBase, JointName.SpineShoulder, JointName.ShoulderLeft, JointName.ShoulderRight)
)


def body_frame(pos: np.ndarray) -> np.ndarray:
    """The person-anchored, right-handed body frame of each pose: up along
    the spine, left along the shoulder line with the spine component
    removed, forward = left x up.

    ``pos`` is a (..., 12, 3) position array, (12, 3) for one pose; the
    result is the (..., 3, 3) array of unit axes with rows forward, left and
    up, so ``stacked_dot(axes, v[..., None, :])`` gives a world direction's
    body-frame components. Raises DegeneratePose for the first pose that
    cannot define a frame, one whose spine or shoulder length is not finite
    (a span or a norm that overflows) included.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        spine = pos[..., _SPINE_SHOULDER, :] - pos[..., _SPINE_BASE, :]
        span = pos[..., _SHOULDER_LEFT, :] - pos[..., _SHOULDER_RIGHT, :]
        spine_len = stacked_norm(spine)
        up = spine / spine_len[..., None]
        left_raw = span - stacked_dot(span, up)[..., None] * up
        left_len = stacked_norm(left_raw)
        left = left_raw / left_len[..., None]
        # left x up, term for term as np.cross computes it (same bits), without
        # its axis handling, which costs more than the arithmetic for one pose
        l0, l1, l2, u0, u1, u2 = (v[..., k] for v in (left, up) for k in range(3))
        forward = np.stack([l1 * u2 - l2 * u1, l2 * u0 - l0 * u2, l0 * u1 - l1 * u0], axis=-1)
        axes = np.stack([forward, left, up], axis=-2)
        # an infinite length passes every test above and makes its axis all zero;
        # finite lengths at or above _MIN_SPAN make finite axes
        failed = (spine_len < _MIN_SPAN, stacked_norm(span) < _MIN_SPAN, left_len < _MIN_SPAN,
                  ~(np.isfinite(spine_len) & np.isfinite(left_len)))
    bad = failed[0] | failed[1] | failed[2] | failed[3]
    if bad.any():
        i = int(np.argmax(bad.reshape(-1)))
        raise DegeneratePose(next(m for m, f in zip(_DEGENERATE, failed) if f.reshape(-1)[i]))
    return axes


# ---------------------------------------------------------------------------
# Synthetic motion generator
# ---------------------------------------------------------------------------
# Fixed anthropomorphic dimensions (meters).
UPPER_ARM_LEN = 0.30
FOREARM_LEN = 0.27
HAND_LEN = 0.08
_SPINE_LEN = 0.50
_NECK_RISE = 0.06
_HEAD_LEN = 0.17
_HALF_SHOULDER = 0.18

# Canonical standing skeleton in a world frame aligned with the body frame:
# forward = +x, left = +y, up = +z.
_BASE = {
    JointName.SpineBase: np.array([0.0, 0.0, 0.0]),
    JointName.SpineShoulder: np.array([0.0, 0.0, _SPINE_LEN]),
    JointName.Neck: np.array([0.0, 0.0, _SPINE_LEN + _NECK_RISE]),
    JointName.ShoulderLeft: np.array([0.0, _HALF_SHOULDER, _SPINE_LEN]),
    JointName.ShoulderRight: np.array([0.0, -_HALF_SHOULDER, _SPINE_LEN]),
}

# pose names spell a Direction and a Level in snake case: "right_forward_high"
_POSE_DIRECTIONS = {"".join("_" + c.lower() if c.isupper() else c for c in d.value)[1:]: d for d in Direction}
_POSE_LEVELS = {l.value.lower(): l for l in Level}

# Move profile: cosine ease-in to cruise speed, constant-velocity cruise,
# abrupt stop at arrival. The ease-in lasts a fixed time (not a fixed
# fraction) so long moves still depart with a readable acceleration, while
# staying gentler than the arrival so the stop is the dominant event.
_EASE_SECONDS = 0.6
_MAX_EASE_FRACTION = 0.75
DEFAULT_MOVE_SECONDS = 0.8
# Long arcs take proportionally longer, capping angular velocity; otherwise
# the centripetal acceleration of fast wide sweeps dwarfs every other
# feature of the motion.
_SECONDS_PER_RADIAN = 0.7


def pose_vector(name: str) -> np.ndarray:
    """Unit direction for a pose name like 'forward_middle' or 'place_low'."""
    parts = name.lower().rsplit("_", 1)
    if len(parts) != 2 or parts[0] not in _POSE_DIRECTIONS or parts[1] not in _POSE_LEVELS:
        raise BadDescriptor(f"unknown pose name: {name!r}")
    direction, level = _POSE_DIRECTIONS[parts[0]], _POSE_LEVELS[parts[1]]
    if direction == Direction.Place:
        if level == Level.Middle:
            raise BadDescriptor("pose 'place_middle' has no direction")
        return direction_vector(0.0, 90.0 if level == Level.High else -90.0)
    return direction_vector(SECTOR_CENTER_DEG[direction], LEVEL_ELEVATION_DEG[level])


def _slerp(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    dot = float(np.clip(a @ b, -1.0, 1.0))
    if dot > 1.0 - 1e-12:
        return a
    if dot < -1.0 + 1e-9:
        # antipodal: route through a deterministic perpendicular
        perp = np.cross(a, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(perp) < 1e-9:
            perp = np.cross(a, np.array([0.0, 1.0, 0.0]))
        perp /= np.linalg.norm(perp)
        if s <= 0.5:
            return _slerp(a, perp, 2.0 * s)
        return _slerp(perp, b, 2.0 * s - 1.0)
    omega = math.acos(dot)
    v = (math.sin((1.0 - s) * omega) * a + math.sin(s * omega) * b) / math.sin(omega)
    return v / np.linalg.norm(v)


def _move_profile(tau: float, seconds: float) -> float:
    """Normalized position along a move: ease-in, cruise, hard stop."""
    e = min(_EASE_SECONDS / seconds, _MAX_EASE_FRACTION)
    total = (2.0 * e / math.pi) + (1.0 - e)
    if tau <= 0.0:
        return 0.0
    if tau >= 1.0:
        return 1.0
    if tau < e:
        s = (2.0 * e / math.pi) * (1.0 - math.cos(math.pi * tau / (2.0 * e)))
    else:
        s = (2.0 * e / math.pi) + (tau - e)
    return s / total


# (shoulder, elbow, wrist, hand) per side
_ARM_JOINTS = {
    "left": (JointName.ShoulderLeft, JointName.ElbowLeft, JointName.WristLeft, JointName.HandLeft),
    "right": (JointName.ShoulderRight, JointName.ElbowRight, JointName.WristRight, JointName.HandRight),
}


def _pose_positions(dirs: dict[str, np.ndarray]) -> np.ndarray:
    """Standing skeleton with the "left" and "right" arms and the "head"
    pointing along unit directions of shape (3,) or (n, 3); returns
    positions of shape (12, 3) or (n, 12, 3)."""
    lead = np.broadcast_shapes(*(np.shape(d) for d in dirs.values()))[:-1]
    positions = np.empty(lead + (len(ALL_JOINTS), 3))
    for joint, p in _BASE.items():
        positions[..., JOINT_INDEX[joint], :] = p
    positions[..., JOINT_INDEX[JointName.Head], :] = _BASE[JointName.Neck] + _HEAD_LEN * dirs["head"]
    for side, chain in _ARM_JOINTS.items():
        shoulder, elbow, wrist, hand = (JOINT_INDEX[j] for j in chain)
        u = dirs[side]
        positions[..., elbow, :] = positions[..., shoulder, :] + UPPER_ARM_LEN * u
        positions[..., wrist, :] = positions[..., elbow, :] + FOREARM_LEN * u
        positions[..., hand, :] = positions[..., wrist, :] + HAND_LEN * u
    return positions


def _part_key(part: str) -> str:
    key = part.lower()
    if key not in ("left_arm", "right_arm", "head"):
        raise BadDescriptor(f"unknown part: {part!r}")
    return key


def _arc_angle(a: np.ndarray, b: np.ndarray) -> float:
    return math.acos(max(-1.0, min(1.0, float(a @ b))))


# a descriptor time: BadDescriptor unless a finite number > 0, or >= 0 with strict=False
_seconds = functools.partial(finite, lo=0.0, strict=True, error=BadDescriptor)
# the keys a descriptor may hold; any other is refused, not ignored
_DESCRIPTOR_KEYS = {"pattern", "part", "poses", "move_seconds"}


def _segment_plan(descriptor: dict) -> tuple[str, list[tuple[str, float, np.ndarray, np.ndarray]]]:
    """Expand a descriptor into (part, [(kind, seconds, from_dir, to_dir)...]):
    a dwell at each pose, with a move between each two."""
    pattern = descriptor.get("pattern")
    if pattern != "reach_sequence":
        raise BadDescriptor(f"unknown pattern: {pattern!r}")
    unread = sorted(map(str, descriptor.keys() - _DESCRIPTOR_KEYS))
    if unread:
        raise BadDescriptor(f"{pattern} does not read {', '.join(unread)}")
    move_floor = _seconds(descriptor.get("move_seconds", DEFAULT_MOVE_SECONDS), "move_seconds", strict=False)
    part = _part_key(descriptor.get("part", "right_arm"))
    poses = descriptor.get("poses")
    if not poses:
        raise BadDescriptor("reach_sequence needs at least one pose")
    plan: list[tuple[str, float, np.ndarray, np.ndarray]] = []
    prev = None
    for name, dwell in poses:
        u = pose_vector(name)
        dwell = _seconds(dwell, f"dwell of {name}")
        if prev is not None:
            plan.append(("move", max(move_floor, _SECONDS_PER_RADIAN * _arc_angle(prev, u)), prev, u))
        plan.append(("dwell", dwell, u, u))
        prev = u
    return part, plan


def descriptor_timeline(descriptor: dict) -> list[tuple[str, float, float]]:
    """(kind, start, end) segments the generator will realize, in order.

    Useful for tests and tools that need to know where the dwell plateaus
    and transit segments of a synthetic clip lie.
    """
    _, plan = _segment_plan(descriptor)
    out = []
    t = 0.0
    for kind, seconds, _, _ in plan:
        out.append((kind, t, t + seconds))
        t += seconds
    return out


def synth_motion(descriptor: dict, rate: float = 30.0) -> SkeletonSequence:
    """Generate a deterministic synthetic sequence from a descriptor dict.

    The one pattern is
      {"pattern": "reach_sequence", "part": p, "poses": [[name, dwell_s], ...], "move_seconds": s}
    with one pose or more; ``part`` defaults to "right_arm" and
    ``move_seconds``, the shortest move, to :data:`DEFAULT_MOVE_SECONDS`. Any
    other key is refused (``BadDescriptor``) rather than ignored.

    The moved part travels with a cosine ease-in to constant speed and an
    abrupt stop, so arrivals read as brief stops. Parts not named stay at
    their defaults (arms down, head up).
    """
    finite(rate, "rate", 0.0, strict=True, error=BadDescriptor)
    part, plan = _segment_plan(descriptor)
    total = sum(seconds for _, seconds, _, _ in plan)
    _check_sample_count(total * rate, total, rate)
    n = int(round(total * rate))
    if n < 1:
        raise BadDescriptor("descriptor spans less than one frame")

    times = np.arange(n) / rate
    moved = np.empty((n, 3))
    k, acc = 0, 0.0  # the first segment that has not ended by the current time, and its start
    for i, t in enumerate(times.tolist()):
        while k < len(plan) and not t < acc + plan[k][1] - 1e-12:
            acc += plan[k][1]
            k += 1
        if k == len(plan):  # past the last segment: final pose
            moved[i] = plan[-1][3]
        else:
            kind, seconds, a, b = plan[k]
            moved[i] = a if kind == "dwell" else _slerp(a, b, _move_profile((t - acc) / seconds, seconds))
    dirs = {"left": pose_vector("place_low"), "right": pose_vector("place_low"),
            "head": pose_vector("place_high")}
    dirs[part.split("_")[0]] = moved
    return SkeletonSequence(times, _pose_positions(dirs), float(rate))
