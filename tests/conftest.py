"""Shared helpers: independent oracles and randomized generators.

The energy oracle re-implements the signal chain in plain Python so the
numpy implementation is checked against an independent route, not itself.
The skeleton reference reads a whole document with ``json.loads`` and scans
the frame objects for the first fault, where the library walks the text
frame by frame.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest

from labanmotion.laban import (
    Cell,
    Direction,
    LabanColumn,
    LabanScore,
    LabanSymbol,
    Level,
    SYMBOL_CODES,
    VALID_LIMB_SYMBOLS,
)
from labanmotion.encoder import AZIMUTH_SECTORS, COLUMN_DISTAL
from labanmotion import skeleton
from labanmotion.errors import (BadInput, DegeneratePose, LabanMotionError, MalformedFrame, ParseError, TimeOrderError,
                                finite, json_numbers, read_json)
from labanmotion.robot import project_path
from labanmotion.skeleton import JOINT_INDEX, PARENT, JointName, SkeletonSequence, body_frame
from labanmotion.trajectory import PATH_SAMPLES, MotionDictionary, dict_update, serialize_dictionary


# ---------------------------------------------------------------------------
# Brute-force energy oracle (pure Python, no numpy)
# ---------------------------------------------------------------------------

def oracle_smooth(xs: list[float], sigma: float, rate: float) -> list[float]:
    s = sigma * rate
    r = math.ceil(3.0 * s)
    weights = [math.exp(-(k * k) / (2.0 * s * s)) for k in range(-r, r + 1)]
    total = sum(weights)
    weights = [w / total for w in weights]
    n = len(xs)
    out = []
    for i in range(n):
        acc = 0.0
        for k in range(-r, r + 1):
            j = min(max(i + k, 0), n - 1)  # edge replication
            acc += weights[k + r] * xs[j]
        out.append(acc)
    return out


def _oracle_derivs(x: list[float], dt: float) -> tuple[list[float], list[float]]:
    n = len(x)
    v = [0.0] * n
    a = [0.0] * n
    for i in range(1, n - 1):
        v[i] = (x[i + 1] - x[i - 1]) / (2.0 * dt)
        a[i] = (x[i + 1] - 2.0 * x[i] + x[i - 1]) / (dt * dt)
    v[0] = (x[1] - x[0]) / dt
    v[n - 1] = (x[n - 1] - x[n - 2]) / dt
    a[0] = (x[2] - 2.0 * x[1] + x[0]) / (dt * dt)
    a[n - 1] = (x[n - 1] - 2.0 * x[n - 2] + x[n - 3]) / (dt * dt)
    return v, a


def _oracle_minmax(xs: list[float]) -> list[float]:
    lo, hi = min(xs), max(xs)
    if hi == lo:
        return [0.0] * len(xs)
    return [(x - lo) / (hi - lo) for x in xs]


def oracle_energy(seq: SkeletonSequence, part: JointName, sigma: float) -> list[float]:
    """values = normalized |acceleration| - normalized |speed| per sample."""
    rate = seq.sample_rate
    dt = 1.0 / rate
    coords = [[float(x) for x in seq.positions_of(part)[:, c]] for c in range(3)]
    vs, accs = [], []
    for c in range(3):
        x = oracle_smooth(coords[c], sigma, rate)
        v, a = _oracle_derivs(x, dt)
        vs.append(v)
        accs.append(a)
    n = len(seq)
    inv = 1.0 / math.sqrt(3.0)
    raw_ea = [inv * math.sqrt(accs[0][i] ** 2 + accs[1][i] ** 2 + accs[2][i] ** 2) for i in range(n)]
    raw_es = [inv * math.sqrt(vs[0][i] ** 2 + vs[1][i] ** 2 + vs[2][i] ** 2) for i in range(n)]
    ea = _oracle_minmax(raw_ea)
    es = _oracle_minmax(raw_es)
    return [ea[i] - es[i] for i in range(n)]


# ---------------------------------------------------------------------------
# Whole-document skeleton reader
# ---------------------------------------------------------------------------

_STRUCTURE_ERRORS = (AttributeError, KeyError, TypeError, ValueError, OverflowError)


def _frame_arrays_reference(frames: list) -> tuple[np.ndarray, np.ndarray]:
    """(times, positions) of parsed frame objects; raises one of
    ``_STRUCTURE_ERRORS`` for a frame the scan below names."""
    ts = [f["t"] for f in frames]
    triples = [f["joints"].get(k, skeleton._ABSENT) for f in frames for k in skeleton._JOINT_KEYS]
    times, coords = skeleton._number_arrays(ts, triples)
    return times, coords.reshape(len(frames), len(skeleton.ALL_JOINTS), 3)


def _check_geometry_reference(frames: list, times: np.ndarray, positions: np.ndarray) -> None:
    """Raise for the first frame with a non-finite timestamp, a missing or
    non-finite joint, or a joint on its parent (joints in enum order)."""
    timed, located, apart = skeleton._geometry_masks(times, positions)
    bad = ~timed | ~located.all(axis=1) | ~apart.all(axis=1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if not timed[i]:
        raise ParseError(f"frames[{i}].t", "non-finite timestamp")
    if not located[i].all():
        joint = skeleton._JOINT_KEYS[int(np.argmin(located[i]))]
        detail = "non-finite coordinate" if joint in frames[i]["joints"] else "missing"
        raise MalformedFrame(i, joint, detail)
    raise MalformedFrame(i, skeleton._CHILDREN[int(np.argmin(apart[i]))].value, "coincides with parent")


def _raise_malformed_reference(frames: list) -> None:
    """Raise for the first frame the conversion cannot read (joints object,
    then each triple by its array shape, then ``t`` by the range check), or
    for a geometry fault of an earlier frame."""
    for i, f in enumerate(frames):
        try:
            joints = f.get("joints") if isinstance(f, dict) else None
            if not isinstance(joints, dict):
                raise ParseError(f"frames[{i}]", "missing 'joints' object")
            for key in skeleton._JOINT_KEYS:
                triple = joints.get(key, skeleton._ABSENT)
                try:
                    shape = np.array(triple, dtype=float).shape
                except _STRUCTURE_ERRORS:
                    shape = None
                if shape != (3,) or not json_numbers(triple):
                    raise MalformedFrame(i, key, "bad coordinate triple")
            finite(f.get("t"), "timestamp", error=functools.partial(ParseError, f"frames[{i}].t"))
        except LabanMotionError:
            _check_geometry_reference(frames, *_frame_arrays_reference(frames[:i]))
            raise


def parse_sequence_reference(text: str) -> SkeletonSequence:
    """What ``skeleton.parse_sequence`` gives for ``text``, read from the
    ``json.loads`` tree of the whole document."""
    obj = read_json(text)
    frames = obj.get("frames")
    if not isinstance(frames, list):
        raise ParseError("$", "expected object with a 'frames' list")
    try:
        times, positions = _frame_arrays_reference(frames)
    except _STRUCTURE_ERRORS:
        _raise_malformed_reference(frames)
        raise  # a structure fault the frame scan does not know
    _check_geometry_reference(frames, times, positions)
    late = times[1:] <= times[:-1]
    if late.any():
        raise TimeOrderError(int(np.argmax(late)) + 1)
    return SkeletonSequence(times, positions, skeleton._uniform_rate(times, obj.get("sample_rate_hint")))


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random proper rotation matrix (quaternion method)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotate_about(v: np.ndarray, axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation of v about a unit axis."""
    axis = axis / np.linalg.norm(axis)
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return v * c + np.cross(axis, v) * s + axis * (axis @ v) * (1.0 - c)


def transform_sequence(seq: SkeletonSequence, R: np.ndarray, t: np.ndarray) -> SkeletonSequence:
    return SkeletonSequence(seq.times.copy(), seq.positions @ R.T + t, seq.sample_rate)


# every name skeleton.pose_vector accepts: a direction and a level, in snake case
POSE_NAMES = [f"{d}_{l}" for d in ("place", "forward", "left_forward", "left", "left_backward", "backward",
                                   "right_backward", "right", "right_forward")
              for l in ("high", "middle", "low") if (d, l) != ("place", "middle")]


# ---------------------------------------------------------------------------
# Scalar band and sector rules, from the band table in encoder.py's docstring
# ---------------------------------------------------------------------------

def band_reference(elevation_deg: float) -> int:
    """Band index from the top (Place High, High, Middle, Low, Place Low) of
    an elevation, one comparison at a time: the caps are closed at +/-67.5,
    High and Low own their +/-22.5 boundaries."""
    if elevation_deg >= 67.5:
        return 0
    if elevation_deg <= -67.5:
        return 4
    if elevation_deg >= 22.5:
        return 1
    if elevation_deg <= -22.5:
        return 3
    return 2


def sector_reference(azimuth_deg: float) -> int:
    """Index in AZIMUTH_SECTORS (45-degree sectors counterclockwise from
    forward) of an azimuth, each sector [c - 22.5, c + 22.5), lower edge closed."""
    return int(math.floor((azimuth_deg + 22.5) / 45.0)) % 8


def symbol_reference(x: float, y: float, z: float) -> LabanSymbol:
    """Symbol of a unit direction from math.asin and math.atan2 on Python
    floats; a cap's symbol takes no azimuth."""
    band = band_reference(math.degrees(math.asin(max(-1.0, min(1.0, z)))))
    if band in (0, 4):
        return LabanSymbol(Direction.Place, Level.High if band == 0 else Level.Low)
    level = (None, Level.High, Level.Middle, Level.Low)[band]
    return LabanSymbol(AZIMUTH_SECTORS[sector_reference(math.degrees(math.atan2(y, x)))], level)


def code_reference(x: float, y: float, z: float) -> int:
    """Symbol code of a unit direction by :func:`symbol_reference`."""
    return SYMBOL_CODES[symbol_reference(x, y, z)]


# ---------------------------------------------------------------------------
# Per-pose encoding and per-transition dictionary building (the loops that
# encoder.encode_poses and one projection per clip replaced)
# ---------------------------------------------------------------------------

def encode_pose_reference(pos: np.ndarray, columns: tuple[str, ...]) -> dict[str, LabanSymbol]:
    """Symbols per column for one (12, 3) pose: its body frame, then per
    column the parent-to-distal segment made unit by np.linalg.norm and
    projected on each of the frame's axes, np.linalg.norm's unit check, and
    the scalar band and sector rules of :func:`symbol_reference`."""
    axes = body_frame(pos)
    out = {}
    for column in columns:
        distal = COLUMN_DISTAL[column]
        with np.errstate(over="ignore", invalid="ignore"):
            d = pos[JOINT_INDEX[distal]] - pos[JOINT_INDEX[PARENT[distal]]]
            length = np.linalg.norm(d)
            if length < 1e-9:
                raise DegeneratePose(f"column {column}: zero-length segment at {distal.value}")
            unit = d / length
            # one vector dot per axis, as for any pair of vectors; the matrix
            # product axes @ unit may round differently, which flips band edges
            v = np.array([axis @ unit for axis in axes])
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= 1e-6:  # NaN fails it
            raise BadInput(f"expected a unit vector, |v| = {norm}")
        out[column] = symbol_reference(*v.tolist())
    return out


def state_key(from_state: dict[str, LabanSymbol], to_state: dict[str, LabanSymbol]) -> str:
    """The dictionary key of two {column: symbol} maps, each side's columns
    sorted: the rule that ``dict_key`` keeps for rows of symbol codes."""
    def side(state):
        return ",".join(f"{col}={state[col].direction.value}.{state[col].level.value}" for col in sorted(state))

    return f"{side(from_state)}->{side(to_state)}"


def serialize_dictionary_reference(mdict: MotionDictionary) -> str:
    """A dictionary file written line by line, each path's line joined by
    hand from the ``repr`` of every angle: the bytes that
    ``serialize_dictionary`` writes with one ``json.dumps`` per path."""
    lines = ["{", f'  "samples_per_path": {PATH_SAMPLES},', f'  "tau": {mdict.tau!r},', '  "entries": {']
    keys = sorted(mdict.entries)
    for ki, key in enumerate(keys):
        entry = mdict.entries[key]
        lines.append(f'    {json.dumps(key)}: [')
        for pi, p in enumerate(entry.paths):
            joints = json.dumps(list(p.motion.joints))
            rows = ", ".join("[" + ", ".join(map(repr, row)) + "]" for row in p.motion.samples.tolist())
            comma = "," if pi + 1 < len(entry.paths) else ""
            lines.append(f'      {{"count": {p.count}, "joints": {joints}, "samples": [{rows}]}}{comma}')
        lines.append("    ]" + ("," if ki + 1 < len(keys) else ""))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def dict_build_per_transition(observed, robot, columns, tau: float = 10.0) -> str:
    """Serialized dictionary of (sequence, key frame set) pairs, each key
    frame encoded by :func:`encode_pose_reference` and each transition
    projected on its own: the paths ``dict build`` must give from one
    projection per clip."""
    mdict = MotionDictionary(tau=tau)
    for seq, kfs in observed:
        merged = kfs.merged
        states = [encode_pose_reference(seq.positions[i], columns) for i in merged]
        for k in range(len(merged) - 1):
            key = state_key(states[k], states[k + 1])
            dict_update(mdict, key, project_path(seq, merged[k], merged[k + 1], robot))
    return serialize_dictionary(mdict)


def states_brute_force(score: LabanScore, t: float) -> dict[str, int]:
    """Per-time scan: the code of the first cell of each column that covers
    t, by the (start, end + 1e-9] rule; columns with no covering cell are
    absent."""
    out = {}
    for col in score.columns:
        for cell in col.cells:
            if cell.start < t <= cell.end + 1e-9:
                out[col.name] = cell.code
                break
    return out


# ---------------------------------------------------------------------------
# Random valid score generator (times on a centisecond grid)
# ---------------------------------------------------------------------------

def symbol_code(direction: Direction, level: Level) -> int:
    """The code a cell holds for the symbol (direction, level): its
    ``SYMBOL_CODES`` entry."""
    return SYMBOL_CODES[LabanSymbol(direction, level)]


_ARM_MODE = ("LeftArm", "RightArm", "Head")
_SPLIT_MODE = ("LeftUpperArm", "LeftForearm", "RightUpperArm", "RightForearm", "Head")


def random_score(rng: np.random.Generator) -> LabanScore:
    pool = _ARM_MODE if rng.random() < 0.5 else _SPLIT_MODE
    n_cols = int(rng.integers(1, len(pool) + 1))
    names = list(rng.choice(pool, size=n_cols, replace=False))
    columns = []
    end_cs_max = 0
    for name in sorted(names):
        cells = []
        t_cs = 0  # centiseconds
        for _ in range(int(rng.integers(1, 6))):
            gap = int(rng.integers(0, 3)) * 25
            dur = int(rng.integers(5, 200))
            start = t_cs + gap
            code = int(rng.integers(0, len(VALID_LIMB_SYMBOLS)))
            # avoid adjacent identical symbols so canonical forms stay stable
            if cells and cells[-1].code == code and gap == 0:
                code = (code + 1) % len(VALID_LIMB_SYMBOLS)
            cells.append(Cell(code, start / 100.0, dur / 100.0))
            t_cs = start + dur
        end_cs_max = max(end_cs_max, t_cs)
        columns.append(LabanColumn(name=name, cells=tuple(cells)))
    total = (end_cs_max + int(rng.integers(0, 100))) / 100.0
    meta = ()
    if rng.random() < 0.5:
        meta = tuple(sorted({("source", "test"), ("trial", str(int(rng.integers(0, 1000))))}))
    return LabanScore(columns=tuple(columns), total_duration=total, meta=meta)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
