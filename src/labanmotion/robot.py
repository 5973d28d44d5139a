"""Robot kinematic descriptions and score decoding.

A robot is a set of 2-DOF yaw/pitch gimbal segments grouped into chains,
plus a column map that wires Labanotation columns to segments. One column
feeding several segments is a split (the direction is copied); several
columns feeding one segment is a merge (directions are combined by
normalized vector sums, with transition history resolving the opposed-
directions singularity). Commanded directions outside a joint's limits are
realized at the nearest limit and flagged as clamped.

Description files are JSON:

    {"name": "...",
     "chains": [{"name": "right_arm",
                 "segments": [{"yaw_joint": "r_sh_yaw", "pitch_joint": "r_sh_pitch",
                               "yaw_limits": [-90, 90], "pitch_limits": [-90, 90],
                               "roll_joint": "r_wrist_roll", "roll_limits": [-90, 90]}]}],
     "column_map": {"RightArm": ["right_arm/0"]},
     "fixed_joints": [{"name": "body_yaw", "limits": [-90, 90]}]}

Roll joints and fixed joints carry no direction information and are held at
zero (clamped into their limits). Two descriptions ship with the package:
``frontal_7dof`` (frontal-hemisphere arms, one wrist roll) and ``lab_9dof``
(wider arm yaw, elbow rolls, a fixed body yaw).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
import logging

import numpy as np

from .encoder import COLUMN_DISTAL, LEVEL_ELEVATION_DEG, SECTOR_CENTER_DEG, segment_direction
from .errors import BadSymbol, MissingColumn, ParseError, ValidationError
from .laban import VALID_LIMB_SYMBOLS, Direction, LabanScore, LabanSymbol, Level, states_at, validate
from .skeleton import SkeletonSequence, body_frame

log = logging.getLogger(__name__)

BUNDLED_ROBOTS = ("frontal_7dof", "lab_9dof")


@dataclass(frozen=True)
class Segment:
    yaw_joint: str
    pitch_joint: str
    yaw_limits: tuple[float, float]
    pitch_limits: tuple[float, float]
    roll_joint: str | None = None
    roll_limits: tuple[float, float] = (-180.0, 180.0)


@dataclass(frozen=True)
class Chain:
    name: str
    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class FixedJoint:
    name: str
    limits: tuple[float, float]


@dataclass(frozen=True)
class RobotDescription:
    name: str
    chains: tuple[Chain, ...]
    column_map: dict[str, tuple[str, ...]]
    fixed_joints: tuple[FixedJoint, ...] = ()

    def segment(self, ref: str) -> Segment:
        chain_name, _, idx = ref.partition("/")
        for chain in self.chains:
            if chain.name == chain_name:
                return chain.segments[int(idx)]
        raise KeyError(ref)

    @cached_property
    def segment_table(self) -> tuple[tuple[str, Segment, tuple[str, ...]], ...]:
        """``(ref, segment, source columns in column_map order)`` for every
        segment in chain order, built once per description."""
        table = []
        for chain in self.chains:
            for i, seg in enumerate(chain.segments):
                ref = f"{chain.name}/{i}"
                table.append((ref, seg, tuple(col for col, refs in self.column_map.items() if ref in refs)))
        return tuple(table)

    def _joint_limits(self) -> list[tuple[str, tuple[float, float]]]:
        """``(joint, limits)`` per segment yaw, pitch and roll in chain order,
        then per fixed joint."""
        limits = []
        for chain in self.chains:
            for seg in chain.segments:
                limits += [(seg.yaw_joint, seg.yaw_limits), (seg.pitch_joint, seg.pitch_limits)]
                if seg.roll_joint:
                    limits.append((seg.roll_joint, seg.roll_limits))
        return limits + [(fj.name, fj.limits) for fj in self.fixed_joints]

    @cached_property
    def neutral_angles(self) -> dict[str, float]:
        """Joint name -> zero clamped into its limits, for every joint in
        :meth:`joint_names` order, built once per description."""
        return {name: _clamp_nearest(0.0, *limits)[0] for name, limits in self._joint_limits()}

    def joint_names(self) -> list[str]:
        return [name for name, _ in self._joint_limits()]


@dataclass
class JointPose:
    t: float
    angles: dict[str, float]


def _limits(obj, key, where) -> tuple[float, float]:
    pair = obj.get(key)
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(type(x) in (int, float) for x in pair)  # exact: a bool is an int
    ):
        raise ParseError(f"{where}.{key}", "expected [lo, hi] degrees")
    # compared before conversion: an integer beyond the float range has no float
    if not -180.0 <= pair[0] <= pair[1] <= 180.0:  # False for NaN
        raise ValidationError([f"{where}.{key}: bad limits [{pair[0]}, {pair[1]}]"])
    return float(pair[0]), float(pair[1])


def _objects(obj: dict, key: str, where: str) -> list[dict]:
    """The list of objects at ``obj[key]`` (empty when absent)."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f"{where}.{key}", "expected a list")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ParseError(f"{where}.{key}[{i}]", "expected an object")
    return items


def parse_robot(text: str) -> RobotDescription:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg)
    if not isinstance(obj, dict):
        raise ParseError("$", "expected a JSON object")
    name = obj.get("name")
    if not isinstance(name, str):
        raise ParseError("$.name", "missing robot name")
    chains = []
    for ci, chain_obj in enumerate(_objects(obj, "chains", "$")):
        where = f"$.chains[{ci}]"
        cname = chain_obj.get("name")
        if not isinstance(cname, str):
            raise ParseError(f"{where}.name", "missing chain name")
        segments = []
        for si, seg_obj in enumerate(_objects(chain_obj, "segments", where)):
            swhere = f"{where}.segments[{si}]"
            yaw_j = seg_obj.get("yaw_joint")
            pitch_j = seg_obj.get("pitch_joint")
            if not isinstance(yaw_j, str) or not isinstance(pitch_j, str):
                raise ParseError(swhere, "segments need yaw_joint and pitch_joint names")
            roll_j = seg_obj.get("roll_joint")
            segments.append(
                Segment(
                    yaw_joint=yaw_j,
                    pitch_joint=pitch_j,
                    yaw_limits=_limits(seg_obj, "yaw_limits", swhere),
                    pitch_limits=_limits(seg_obj, "pitch_limits", swhere),
                    roll_joint=roll_j if isinstance(roll_j, str) else None,
                    roll_limits=_limits(seg_obj, "roll_limits", swhere)
                    if "roll_limits" in seg_obj
                    else (-180.0, 180.0),
                )
            )
        chains.append(Chain(name=cname, segments=tuple(segments)))
    column_map = {}
    cmap_obj = obj.get("column_map", {})
    if not isinstance(cmap_obj, dict):
        raise ParseError("$.column_map", "expected an object")
    for col, refs in cmap_obj.items():
        if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
            raise ParseError(f"$.column_map.{col}", "expected a list of segment refs")
        column_map[str(col)] = tuple(refs)
    fixed = []
    for fi, fj_obj in enumerate(_objects(obj, "fixed_joints", "$")):
        fwhere = f"$.fixed_joints[{fi}]"
        fname = fj_obj.get("name")
        if not isinstance(fname, str):
            raise ParseError(f"{fwhere}.name", "missing joint name")
        fixed.append(FixedJoint(name=fname, limits=_limits(fj_obj, "limits", fwhere)))
    robot = RobotDescription(
        name=name, chains=tuple(chains), column_map=column_map, fixed_joints=tuple(fixed)
    )
    problems = validate_robot(robot)
    if problems:
        raise ValidationError(problems)
    return robot


def validate_robot(robot: RobotDescription) -> list[str]:
    problems = []
    refs = {ref for ref, _, _ in robot.segment_table}
    fan_in: dict[str, int] = {}
    for col, targets in robot.column_map.items():
        if len(set(targets)) != len(targets):
            problems.append(f"column {col} lists a segment twice")
        for ref in targets:
            if ref not in refs:
                problems.append(f"column {col} references unknown segment {ref}")
            fan_in[ref] = fan_in.get(ref, 0) + 1
    for ref, n in fan_in.items():
        if n > 3:
            problems.append(f"segment {ref} merged from {n} columns (limit 3)")
    names = robot.joint_names()
    for jn in set(names):
        if names.count(jn) > 1:
            problems.append(f"joint name {jn} used twice")
    return problems


def load_robot(path: str) -> RobotDescription:
    """Load a description from a file path or a bundled name."""
    if path in BUNDLED_ROBOTS:
        text = resources.files("labanmotion.robots").joinpath(f"{path}.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_robot(text)


# ---------------------------------------------------------------------------
# Symbol geometry
# ---------------------------------------------------------------------------

def _band_center(s: LabanSymbol) -> np.ndarray:
    if s.direction == Direction.Place:
        v = np.array([0.0, 0.0, 1.0 if s.level == Level.High else -1.0])
    else:
        theta = math.radians(LEVEL_ELEVATION_DEG[s.level])
        phi = math.radians(SECTOR_CENTER_DEG[s.direction])
        v = np.array([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), math.sin(theta)])
    v.flags.writeable = False  # one array per symbol, shared by every caller
    return v


_SYMBOL_VECTORS = {s: _band_center(s) for s in VALID_LIMB_SYMBOLS}


def symbol_to_vector(s: LabanSymbol) -> np.ndarray:
    """Unit body-frame direction at the center of a symbol's band, as a
    shared read-only array."""
    v = _SYMBOL_VECTORS.get(s)
    if v is None:
        raise BadSymbol("(Place, Middle) has no direction")
    return v


def concatenate(a: np.ndarray, b: np.ndarray, last: np.ndarray | None) -> np.ndarray:
    """Combine two adjacent directions into one by the normalized sum.

    Opposed directions cancel; in that singular case ``last``, the previous
    combined direction, is kept (or the first operand on a cold start).
    """
    s = a + b
    norm = float(np.linalg.norm(s))
    if norm > 1e-6:
        return s / norm
    if last is not None:
        return last
    return np.asarray(a, dtype=float)


def reduce_vectors(
    vectors: dict[str, np.ndarray],
    robot: RobotDescription,
    hist: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Per-segment direction from per-column directions.

    Split targets receive their source column's vector unchanged; merge
    targets left-fold ``concatenate`` over their source columns in
    column-map order, each step's result being the next step's history.
    Segments whose sources are not all present are left out. ``hist`` maps
    each merged segment to its last combined direction and is updated in
    place.
    """
    out: dict[str, np.ndarray] = {}
    for ref, _, sources in robot.segment_table:
        if not sources or any(c not in vectors for c in sources):
            continue
        v = vectors[sources[0]]
        if len(sources) > 1:
            last = hist.get(ref)
            for col in sources[1:]:
                v = last = concatenate(v, vectors[col], last)
            hist[ref] = v
        out[ref] = v
    return out


def reduce_columns(
    symbols: dict[str, LabanSymbol],
    robot: RobotDescription,
    hist: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Symbol form of :func:`reduce_vectors`; missing source columns raise."""
    for ref, _, sources in robot.segment_table:
        for col in sources:
            if col not in symbols:
                raise MissingColumn(ref, col)
    vectors = {col: symbol_to_vector(sym) for col, sym in symbols.items()}
    return reduce_vectors(vectors, robot, hist)


def _angular_distance(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def _clamp_nearest(value: float, lo: float, hi: float) -> tuple[float, bool]:
    """Clamp to the angularly nearest limit; equidistant picks the lower."""
    if lo <= value <= hi:
        return value, False
    d_lo = _angular_distance(value, lo)
    d_hi = _angular_distance(value, hi)
    return (lo, True) if d_lo <= d_hi else (hi, True)


def vector_to_joints(v: np.ndarray, seg: Segment) -> tuple[float, float, bool]:
    """(yaw, pitch, clamped) realizing a unit direction on a gimbal segment.

    Yaw is measured from forward toward left, pitch from the horizontal up.
    At the poles yaw is defined as 0. Angles outside the segment's limits
    are clamped to the nearest limit and flagged.
    """
    fx, ly, uz = float(v[0]), float(v[1]), float(v[2])
    pitch = math.degrees(math.asin(max(-1.0, min(1.0, uz))))
    if fx * fx + ly * ly < 1e-12:
        yaw = 0.0
    else:
        yaw = math.degrees(math.atan2(ly, fx))
    yaw_c, yaw_clamped = _clamp_nearest(yaw, *seg.yaw_limits)
    pitch_c, pitch_clamped = _clamp_nearest(pitch, *seg.pitch_limits)
    return yaw_c, pitch_c, yaw_clamped or pitch_clamped


def joints_to_vector(yaw: float, pitch: float) -> np.ndarray:
    """Inverse of :func:`vector_to_joints` for unclamped angles."""
    th, ph = math.radians(pitch), math.radians(yaw)
    return np.array(
        [math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), math.sin(th)]
    )


@dataclass
class SegmentCommand:
    """Decoded state of one segment at one boundary time."""

    yaw: float
    pitch: float
    clamped: bool
    driven: bool  # False when the segment held the neutral pose
    merged: bool  # True when several columns were combined
    symbol: LabanSymbol | None  # source symbol for single-column segments


@dataclass
class DecodedPose:
    t: float
    pose: JointPose
    segments: dict[str, SegmentCommand]
    states: dict[str, LabanSymbol]  # symbol in force at t per score column; uncovered ones absent


def _joint_angles(
    per_segment: dict[str, np.ndarray], robot: RobotDescription
) -> tuple[dict[str, float], dict[str, tuple[float, float, bool]]]:
    """Joint angles for :func:`reduce_vectors` output: the robot's neutral
    angles with each driven segment's yaw and pitch overwritten, plus the
    ``(yaw, pitch, clamped)`` of every driven segment."""
    angles = dict(robot.neutral_angles)
    driven: dict[str, tuple[float, float, bool]] = {}
    for ref, seg, _ in robot.segment_table:
        if ref in per_segment:
            yaw, pitch, _ = driven[ref] = vector_to_joints(per_segment[ref], seg)
            angles[seg.yaw_joint] = yaw
            angles[seg.pitch_joint] = pitch
    return angles, driven


def decode_score_detailed(score: LabanScore, robot: RobotDescription) -> list[DecodedPose]:
    """Decode a score into per-boundary-time joint poses with segment detail.

    Boundary times are the distinct cell end times, ascending. At each time,
    the symbols in force drive their mapped segments; segments with no
    symbol yet hold the neutral pose (zeros clamped into limits). A mapped
    column that never appears anywhere in the score is an error; extra score
    columns are ignored with a warning.
    """
    violations = validate(score)
    if violations:
        raise ValidationError(violations)
    score_columns = {c.name for c in score.columns}
    for ref, _, sources in robot.segment_table:
        for col in sources:
            if col not in score_columns:
                raise MissingColumn(ref, col)
    for name in sorted(score_columns - set(robot.column_map)):
        log.warning("score column %s not mapped on robot %s; ignored", name, robot.name)

    # nanosecond quantization collapses float drift in start + duration so
    # shared boundaries dedupe across columns
    times = sorted({round(cell.end, 9) for col in score.columns for cell in col.cells})
    states = states_at(score, [min(t, score.total_duration) for t in times])
    hist: dict[str, np.ndarray] = {}
    out: list[DecodedPose] = []
    for t, symbols in zip(times, states):
        vectors = {
            col: symbol_to_vector(sym)
            for col, sym in symbols.items()
            if col in robot.column_map
        }
        angles, driven = _joint_angles(reduce_vectors(vectors, robot, hist), robot)
        detail: dict[str, SegmentCommand] = {}
        for ref, seg, sources in robot.segment_table:
            if ref in driven:
                merged = len(sources) > 1
                symbol = symbols[sources[0]] if not merged else None
                detail[ref] = SegmentCommand(*driven[ref], True, merged, symbol)
            else:
                yaw, pitch = angles[seg.yaw_joint], angles[seg.pitch_joint]
                detail[ref] = SegmentCommand(yaw, pitch, False, False, False, None)
        out.append(DecodedPose(t=t, pose=JointPose(t=t, angles=angles), segments=detail, states=symbols))
    return out


def decode_score(score: LabanScore, robot: RobotDescription) -> list[JointPose]:
    """Timed joint-space key poses for a score on a robot."""
    return [d.pose for d in decode_score_detailed(score, robot)]


def project_path(
    seq: SkeletonSequence, start: int, end: int, robot: RobotDescription
) -> list[JointPose]:
    """Joint-space path for frames start..end inclusive (shared history).

    Uses the un-quantized body-frame segment directions of the mapped
    columns, so intermediate motion between key poses lands in joint space
    without passing through symbols. Body frames and directions are computed
    for the whole range at once; the per-segment merge, whose history is
    sequential, and the joint angles run frame by frame.
    """
    positions = seq.positions[start:end + 1]
    bf = body_frame(positions)
    vectors = {
        col: segment_direction(positions, COLUMN_DISTAL[col], bf)
        for col in robot.column_map
        if col in COLUMN_DISTAL
    }
    hist: dict[str, np.ndarray] = {}
    poses = []
    for k, t in enumerate(seq.times[start:end + 1].tolist()):
        per_segment = reduce_vectors({col: v[k] for col, v in vectors.items()}, robot, hist)
        poses.append(JointPose(t, _joint_angles(per_segment, robot)[0]))
    return poses
