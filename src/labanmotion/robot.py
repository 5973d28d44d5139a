"""Robot kinematic descriptions and score decoding.

A robot is a set of 2-DOF yaw/pitch gimbal segments grouped into chains,
plus a column map that wires Labanotation columns to segments. A segment
takes its direction from at most one column; one column feeding several
segments is a split (the direction is copied). Commanded directions outside
a joint's limits are realized at the nearest limit and flagged as clamped.
A decode takes the symbols in force as one array of symbol codes for all key poses
(:func:`~labanmotion.laban.states_at`) and keeps those of the robot's mapped
columns in :attr:`DecodedScore.codes`. Decoded and projected poses are a
:class:`KeyPoses`, the package's one type for timed joint angles, which the
trajectory module also uses for dictionary paths and sampled trajectories.
Commands read these arrays; only the benchmark indexes them, for one pose
at a time as a ``types.SimpleNamespace``.

Description files are JSON:

    {"name": "...",
     "chains": [{"name": "right_arm",
                 "segments": [{"yaw_joint": "r_sh_yaw", "pitch_joint": "r_sh_pitch",
                               "yaw_limits": [-90, 90], "pitch_limits": [-90, 90],
                               "roll_joint": "r_wrist_roll", "roll_limits": [-90, 90]}]}],
     "column_map": {"RightArm": ["right_arm/0"]},
     "fixed_joints": [{"name": "body_yaw", "limits": [-90, 90]}]}

Each ``column_map`` key is a column name of
:data:`~labanmotion.laban.COLUMN_NAMES`, and a side's whole-arm column
(``RightArm``) is not mapped together with its upper-arm or forearm column
(``RightUpperArm``, ``RightForearm``): the column rules a score keeps
(:func:`~labanmotion.laban.column_violations`). Loading a description that
breaks them, or that feeds one segment from several columns, raises
ValidationError.

Roll joints and fixed joints carry no direction information and are held at
zero (clamped into their limits). Two descriptions ship with the package:
``frontal_7dof`` (frontal-hemisphere arms, one wrist roll) and ``lab_9dof``
(wider arm yaw, elbow rolls, a fixed body yaw).
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cached_property
from types import SimpleNamespace
from typing import Iterator, NamedTuple

import numpy as np

from .encoder import column_directions
from .errors import (MissingColumn, ParseError, ShapeError, TimeOrderError, ValidationError, json_numbers, read_json,
                     read_text)
from .laban import (CODE_VECTORS, VALID_LIMB_SYMBOLS, LabanScore, column_violations, direction_angles, states_at,
                    validate)
from .skeleton import SkeletonSequence

BUNDLED_ROBOTS = ("frontal_7dof", "lab_9dof")
# the bundled descriptions are package data files beside this module
_ROBOTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "robots")


class Segment(NamedTuple):
    yaw_joint: str
    pitch_joint: str
    yaw_limits: tuple[float, float]
    pitch_limits: tuple[float, float]
    roll_joint: str | None = None
    roll_limits: tuple[float, float] = (-180.0, 180.0)


class Chain(NamedTuple):
    name: str
    segments: tuple[Segment, ...]


class FixedJoint(NamedTuple):
    name: str
    limits: tuple[float, float]


class _RobotFields(NamedTuple):
    name: str
    chains: tuple[Chain, ...]
    column_map: dict[str, tuple[str, ...]]
    fixed_joints: tuple[FixedJoint, ...] = ()


class RobotDescription(_RobotFields):
    @cached_property
    def segment_table(self) -> tuple[tuple[str, Segment, str | None], ...]:
        """``(ref, segment, the column that feeds it or None)`` for every
        segment in chain order, built once per description."""
        table = []
        for chain in self.chains:
            for i, seg in enumerate(chain.segments):
                ref = f"{chain.name}/{i}"
                table.append((ref, seg, next((col for col, refs in self.column_map.items() if ref in refs), None)))
        return tuple(table)

    @cached_property
    def mapped_columns(self) -> tuple[str, ...]:
        """The columns of :attr:`column_map`, sorted: the columns of a decode's
        codes and of the motion dictionary keys built for this robot."""
        return tuple(sorted(self.column_map))

    def _joint_limits(self) -> list[tuple[str, tuple[float, float]]]:
        """``(joint, limits)`` per segment yaw, pitch and roll in chain order,
        then per fixed joint."""
        limits = []
        for chain in self.chains:
            for seg in chain.segments:
                limits += [(seg.yaw_joint, seg.yaw_limits), (seg.pitch_joint, seg.pitch_limits)]
                if seg.roll_joint is not None:
                    limits.append((seg.roll_joint, seg.roll_limits))
        return limits + [(fj.name, fj.limits) for fj in self.fixed_joints]

    @cached_property
    def neutral_angles(self) -> dict[str, float]:
        """Joint name -> zero clamped into its limits, for every joint in
        :meth:`joint_names` order, built once per description."""
        return {name: float(_clamp_nearest(np.zeros(1), *limits)[0][0]) for name, limits in self._joint_limits()}

    def joint_names(self) -> list[str]:
        return [name for name, _ in self._joint_limits()]

    @cached_property
    def symbol_table(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Segment ref -> ``(yaw_pitch, clamped)`` for every segment, built
        at the first decode rather than by :func:`load_robot`. Row k of the
        (27, 2) ``yaw_pitch`` and the (27,) ``clamped`` is :func:`_joint_rows` of row k of
        :data:`~labanmotion.laban.CODE_VECTORS`; the last row, which code -1
        (no symbol in force) selects, holds the segment's neutral angles,
        unclamped."""
        table = {}
        for ref, seg, _ in self.segment_table:
            yaw, pitch, clamped = _joint_rows(CODE_VECTORS, seg)
            neutral = [self.neutral_angles[seg.yaw_joint], self.neutral_angles[seg.pitch_joint]]
            table[ref] = (np.vstack([np.column_stack([yaw, pitch]), neutral]), np.append(clamped, False))
        return table


class KeyPoses:
    """Timed joint angles as arrays: pose i is ``samples[i]`` at ``times[i]``.

    The one type for joint angles over time: decoded and projected key
    poses, motion dictionary paths (on normalized time) and synthesized
    trajectories. The times increase strictly and ``joints``, sorted by
    name, names the columns of ``samples``, so every pose has the same
    joints. Item i is ``SimpleNamespace(t=float, angles={joint: float})``
    of row i; no command reads one, the benchmark's output check does.
    """

    def __init__(self, times, joints, samples):
        self.times = np.asarray(times, dtype=float)  # (m,) seconds
        self.joints = tuple(joints)  # sorted; the columns of samples
        self.samples = np.asarray(samples, dtype=float)  # (m, len(joints)) degrees
        if list(self.joints) != sorted(set(self.joints)):
            raise ShapeError(f"joint names must be sorted and distinct, got {list(self.joints)}")
        if self.samples.shape != (len(self.times), len(self.joints)):
            raise ShapeError(f"samples must have shape {(len(self.times), len(self.joints))} for "
                             f"{len(self.times)} times and {len(self.joints)} joints, got {self.samples.shape}")
        steps = ~(np.diff(self.times) > 0)  # a NaN step is not an increase
        if steps.any():
            raise TimeOrderError(int(np.argmax(steps)) + 1, "times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> SimpleNamespace:
        return SimpleNamespace(t=float(self.times[i]), angles=dict(zip(self.joints, self.samples[i].tolist())))

    def __iter__(self) -> Iterator[SimpleNamespace]:
        return (self[i] for i in range(len(self)))


def _limits(obj, key, where) -> tuple[float, float]:
    pair = obj.get(key)
    if not isinstance(pair, list) or len(pair) != 2 or not json_numbers(pair):
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


def _check_joint_name(name: str, where: str) -> None:
    """A joint name heads a column of the trajectory CSV, after ``t``: it is
    not empty, not ``t`` and holds no ``,``, ``"``, CR or LF."""
    if not name:
        raise ParseError(where, "empty joint name")
    if name == "t" or any(c in name for c in ',"\r\n'):
        raise ParseError(where, f"joint name {name!r} cannot head a trajectory CSV column")


def parse_robot(text: str) -> RobotDescription:
    obj = read_json(text)
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
            if "roll_joint" in seg_obj and not isinstance(roll_j, str):
                raise ParseError(f"{swhere}.roll_joint", "expected a joint name")
            for key, joint in (("yaw_joint", yaw_j), ("pitch_joint", pitch_j), ("roll_joint", roll_j)):
                if joint is not None:
                    _check_joint_name(joint, f"{swhere}.{key}")
            segments.append(
                Segment(
                    yaw_joint=yaw_j,
                    pitch_joint=pitch_j,
                    yaw_limits=_limits(seg_obj, "yaw_limits", swhere),
                    pitch_limits=_limits(seg_obj, "pitch_limits", swhere),
                    roll_joint=roll_j,
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
        _check_joint_name(fname, f"{fwhere}.name")
        fixed.append(FixedJoint(name=fname, limits=_limits(fj_obj, "limits", fwhere)))
    robot = RobotDescription(
        name=name, chains=tuple(chains), column_map=column_map, fixed_joints=tuple(fixed)
    )
    problems = validate_robot(robot)
    if problems:
        raise ValidationError(problems)
    return robot


def validate_robot(robot: RobotDescription) -> list[str]:
    """The rules the description breaks, as messages; empty means it is valid."""
    problems = [f"column_map: {v}" for v in column_violations(list(robot.column_map))]
    refs = {ref for ref, _, _ in robot.segment_table}
    fed: Counter[str] = Counter()
    for col, targets in robot.column_map.items():
        if len(set(targets)) != len(targets):
            problems.append(f"column {col} lists a segment twice")
        problems += [f"column {col} references unknown segment {ref}" for ref in targets if ref not in refs]
        fed.update(dict.fromkeys(targets, 1))  # a segment listed twice is reported above, not counted twice
    problems += [f"segment {ref} fed by {n} columns (a segment takes one)" for ref, n in fed.items() if n > 1]
    problems += [f"chain name {cn} used twice" for cn, n in Counter(c.name for c in robot.chains).items() if n > 1]
    problems += [f"joint name {jn} used twice" for jn, n in Counter(robot.joint_names()).items() if n > 1]
    return problems


def load_robot(path: str) -> RobotDescription:
    """Load a description from a file path or a bundled name."""
    if path in BUNDLED_ROBOTS:
        path = os.path.join(_ROBOTS_DIR, f"{path}.json")
    return parse_robot(read_text(path))


# ---------------------------------------------------------------------------
# Symbol geometry
# ---------------------------------------------------------------------------

def _clamp_nearest(values: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Clamp each value to the angularly nearest limit, equidistant picking
    the lower: the clamped values and where they were clamped."""
    inside = (lo <= values) & (values <= hi)
    if inside.all():
        return values, ~inside
    d_lo = np.abs(values - lo) % 360.0
    d_hi = np.abs(values - hi) % 360.0
    nearest = np.where(np.minimum(d_lo, 360.0 - d_lo) <= np.minimum(d_hi, 360.0 - d_hi), lo, hi)
    return np.where(inside, values, nearest), ~inside


def _joint_rows(directions: np.ndarray, seg: Segment) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Yaw, pitch and clamped arrays realizing each row of (n, 3) unit
    directions on a gimbal segment.

    Yaw is measured from forward toward left, pitch from the horizontal up;
    at the poles yaw is 0. Angles outside the segment's limits are clamped
    to the nearest limit and flagged. The angles are
    :func:`~labanmotion.laban.direction_angles`; the pole rule and the clamps
    are array arithmetic that rounds as scalar arithmetic does."""
    yaw, pitch = direction_angles(directions)
    fx, ly = directions[:, 0], directions[:, 1]
    yaw[fx * fx + ly * ly < 1e-12] = 0.0
    yaw, yaw_clamped = _clamp_nearest(yaw, *seg.yaw_limits)
    pitch, pitch_clamped = _clamp_nearest(pitch, *seg.pitch_limits)
    return yaw, pitch, yaw_clamped | pitch_clamped


class DecodedScore:
    """A decoded score: the key poses, the codes of the symbols in force at
    each, and per-segment flags as (poses, segments) arrays whose columns
    follow ``robot.segment_table``. Item i is ``SimpleNamespace(t, pose,
    segments={ref: SimpleNamespace(yaw, pitch, clamped, driven, symbol)})``,
    ``symbol`` None where not driven; no command reads one, the benchmark's
    tracer does."""

    def __init__(self, poses: KeyPoses, codes: np.ndarray, robot: RobotDescription, driven: np.ndarray,
                 clamped: np.ndarray):
        self.poses = poses
        self.codes = codes  # (m, len(columns)) intp: symbol code in force per mapped column, -1 where none is
        self.robot = robot
        self.driven = driven  # (m, segments) bool: the segment's column had a symbol in force
        self.clamped = clamped  # (m, segments) bool: a driven segment realized at a joint limit

    @property
    def columns(self) -> tuple[str, ...]:
        """The columns of :attr:`codes`: the robot's mapped columns, sorted."""
        return self.robot.mapped_columns

    def __len__(self) -> int:
        return len(self.poses)

    def __getitem__(self, i: int) -> SimpleNamespace:
        pose = self.poses[i]
        codes = dict(zip(self.columns, self.codes[i].tolist()))
        segments = {}
        for s, (ref, seg, col) in enumerate(self.robot.segment_table):
            driven = bool(self.driven[i, s])
            segments[ref] = SimpleNamespace(yaw=pose.angles[seg.yaw_joint], pitch=pose.angles[seg.pitch_joint],
                                            clamped=bool(self.clamped[i, s]), driven=driven,
                                            symbol=VALID_LIMB_SYMBOLS[codes[col]] if driven else None)
        return SimpleNamespace(t=pose.t, pose=pose, segments=segments)

    def __iter__(self) -> Iterator[SimpleNamespace]:
        return (self[i] for i in range(len(self)))


def _neutral(robot: RobotDescription, m: int) -> tuple[tuple[str, ...], dict[str, int], np.ndarray]:
    """Sorted joint names, each one's column, and m rows of neutral angles."""
    joints = tuple(sorted(robot.neutral_angles))
    angles = np.tile(np.array([robot.neutral_angles[j] for j in joints], dtype=float), (m, 1))
    return joints, {j: c for c, j in enumerate(joints)}, angles


def decode_score_detailed(score: LabanScore, robot: RobotDescription) -> DecodedScore:
    """Decode a score into per-boundary-time joint poses with segment detail.

    Boundary times are the distinct cell end times, rounded to whole
    microseconds (the score file's resolution), ascending. At each time,
    the symbols in force drive their mapped segments; segments with no
    symbol yet hold the neutral pose (zeros clamped into limits). A mapped
    column that never appears anywhere in the score is an error; extra score
    columns are ignored with a warning.

    The robot's mapped columns are taken from one :func:`~labanmotion.laban.states_at`
    code array. Each segment fed by a column reads its angles from the
    robot's :attr:`~RobotDescription.symbol_table`, one gather over all
    poses.
    """
    violations = validate(score)
    if violations:
        raise ValidationError(violations)
    score_columns = {c.name: k for k, c in enumerate(score.columns)}
    for ref, _, col in robot.segment_table:
        if col is not None and col not in score_columns:
            raise MissingColumn(ref, col)
    for name in sorted(score_columns.keys() - set(robot.column_map)):
        import logging  # only a decode that warns loads logging, not every start-up
        logging.getLogger(__name__).warning("score column %s not mapped on robot %s; ignored", name, robot.name)

    # cell ends rounded to whole microseconds, the score file's resolution, so
    # float drift in start + duration dedupes across columns (ends of 2**52 µs
    # or more stay as they are); sorted and deduplicated by hand, as np.unique
    # imports numpy.ma (about 1 MB) on its first call
    ends = np.array([start + duration for col in score.columns for _, start, duration in col.cells],  # Cell.end
                    dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        times = np.sort(np.where(np.abs(ends) < 2**52 / 1e6, np.rint(ends * 1e6) / 1e6, ends))
    distinct = np.ones(len(times), dtype=bool)
    distinct[1:] = times[1:] != times[:-1]
    times = times[distinct]
    states = states_at(score, np.minimum(times, score.total_duration).tolist())
    columns = robot.mapped_columns
    # a mapped column that feeds no segment may be absent from the score: -1 throughout
    codes = np.column_stack([states, np.full(len(times), -1, dtype=np.intp)])[
        :, [score_columns.get(col, -1) for col in columns]]
    index = {col: c for c, col in enumerate(columns)}
    joints, column, angles = _neutral(robot, len(times))
    driven = np.zeros((len(times), len(robot.segment_table)), dtype=bool)
    clamped = np.zeros_like(driven)
    for s, (ref, seg, col) in enumerate(robot.segment_table):
        if col is not None:
            yaw_pitch, flags = robot.symbol_table[ref]
            code = codes[:, index[col]]
            angles[:, [column[seg.yaw_joint], column[seg.pitch_joint]]] = yaw_pitch[code]
            driven[:, s] = code >= 0
            clamped[:, s] = flags[code]
    return DecodedScore(KeyPoses(times, joints, angles), codes, robot, driven, clamped)


def decode_score(score: LabanScore, robot: RobotDescription) -> KeyPoses:
    """Timed joint-space key poses for a score on a robot: the poses of
    :func:`decode_score_detailed`, kept for the benchmark's output check."""
    return decode_score_detailed(score, robot).poses


def project_path(
    seq: SkeletonSequence, start: int, end: int, robot: RobotDescription
) -> KeyPoses:
    """Joint-space path for frames start..end inclusive.

    Uses the un-quantized directions of the mapped columns, from the
    encoder's ``column_directions``, so intermediate motion between key poses
    lands in joint space without passing through symbols. Body frames,
    directions and joint angles are computed for the whole range at once,
    and each frame's angles depend on that frame alone.
    """
    directions = column_directions(seq.positions[start:end + 1], robot.mapped_columns)
    vectors = dict(zip(robot.mapped_columns, directions.transpose(1, 0, 2)))
    joints, column, angles = _neutral(robot, len(directions))
    for _, seg, col in robot.segment_table:
        if col is not None:
            yaw, pitch, _ = _joint_rows(vectors[col], seg)
            angles[:, column[seg.yaw_joint]], angles[:, column[seg.pitch_joint]] = yaw, pitch
    return KeyPoses(seq.times[start:end + 1], joints, angles)
