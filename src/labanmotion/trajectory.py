"""Joint-space trajectories between key poses, and the motion dictionary.

Two interpolation modes connect decoded key poses: ``linear`` (straight
segments) and ``cubic`` (per-segment Hermite with zero velocity at every key
pose, so each key reads as a brief stop). The motion dictionary stores
observed intermediate joint paths keyed by (start state, end state) pairs of
column symbols; replaying a familiar transition bumps that path's count,
novel ones are appended, and counts define transition probabilities. During
synthesis, dictionary paths are time-warped onto the key-pose interval and
their endpoint residuals are blended out linearly so the result still passes
exactly through the key poses; uncovered transitions fall back to plain
interpolation.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InsufficientData, ParseError, ShapeError, TimeOrderError, ValidationError, finite,
                     json_numbers, read_json)
from .laban import Direction, LabanSymbol, Level
from .robot import JointPose
from .skeleton import uniform_grid

PATH_SAMPLES = 32
DEFAULT_TAU_DEG = 10.0


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled joint angles; sample i is ``samples[i]`` at ``times[i]``."""

    rate: float
    joints: tuple[str, ...]  # sorted; the columns of samples
    times: np.ndarray  # (m,) seconds
    samples: np.ndarray  # (m, len(joints)) degrees

    @classmethod
    def from_poses(cls, poses: list[JointPose], rate: float) -> "Trajectory":
        """The poses themselves as samples, for a score that decodes to fewer
        than the two key poses :func:`synthesize` needs."""
        finite(rate, "trajectory rate", 0.0, strict=True)
        times, joints, angles = _keypose_arrays(poses)
        return cls(rate=float(rate), joints=joints, times=times, samples=angles)


@dataclass(eq=False)
class MotionPath:
    """Fixed-length joint path on normalized time, joints in sorted order."""

    joints: tuple[str, ...]
    samples: np.ndarray  # (n, len(joints)) degrees


@dataclass(eq=False)
class DictPath:
    motion: MotionPath
    count: int


@dataclass(eq=False)
class DictEntry:
    paths: list[DictPath] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(p.count for p in self.paths)

    def probabilities(self) -> list[float]:
        total = self.total
        return [p.count / total for p in self.paths]


def _state_items(state: dict[str, LabanSymbol]) -> tuple[tuple[str, str, str], ...]:
    return tuple(
        (col, state[col].direction.value, state[col].level.value) for col in sorted(state)
    )


@dataclass(frozen=True)
class DictKey:
    """Canonical (start state, end state) pair of column symbol maps."""

    from_state: tuple[tuple[str, str, str], ...]
    to_state: tuple[tuple[str, str, str], ...]

    @classmethod
    def from_states(cls, from_state: dict[str, LabanSymbol], to_state: dict[str, LabanSymbol]) -> "DictKey":
        return cls(_state_items(from_state), _state_items(to_state))

    def __str__(self) -> str:
        def side(items):
            return ",".join(f"{c}={d}.{l}" for c, d, l in items)

        return f"{side(self.from_state)}->{side(self.to_state)}"

    @classmethod
    def parse(cls, text: str) -> "DictKey":
        def side(part: str):
            items = []
            if part:
                for tok in part.split(","):
                    col, _, sym = tok.partition("=")
                    d, _, l = sym.partition(".")
                    Direction(d), Level(l)  # validate tokens
                    items.append((col, d, l))
            return tuple(items)

        a, _, b = text.partition("->")
        return cls(side(a), side(b))


@dataclass(eq=False)
class MotionDictionary:
    tau: float = DEFAULT_TAU_DEG
    entries: dict[DictKey, DictEntry] = field(default_factory=dict)

    def __post_init__(self):
        finite(self.tau, "tau", 0.0, strict=True)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def _keypose_arrays(keyposes: list[JointPose]) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """(times (m,), sorted joint names, angles (m, J)) of timed poses; the
    times must increase strictly and every pose must name the same joints."""
    times = np.array([p.t for p in keyposes], dtype=float)
    if np.any(np.diff(times) <= 0):
        bad = int(np.argmax(np.diff(times) <= 0)) + 1
        raise TimeOrderError(bad, "pose times must be strictly increasing")
    joints = tuple(sorted(keyposes[0].angles)) if keyposes else ()
    for p in keyposes:
        if tuple(sorted(p.angles)) != joints:
            raise ShapeError("poses disagree on joint names")
    angles = np.array([[p.angles[j] for j in joints] for p in keyposes], dtype=float)
    return times, joints, angles.reshape(len(keyposes), len(joints))


def _blend(mode: str, tau):
    """Blend weight for normalized segment time tau (a float or an array)."""
    if mode == "linear":
        return tau
    if mode == "cubic":
        # Hermite with zero endpoint velocities reduces to the smoothstep
        return tau * tau * (3.0 - 2.0 * tau)
    raise ValueError(f"unknown interpolation mode: {mode!r}")


def _rows_at(times: np.ndarray, angles: np.ndarray, mode: str, t):
    """(segment index, normalized segment time, angles) at time(s) ``t``, a
    float or an (m,) array; times outside the key-pose span hold the end
    poses."""
    idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    tau = np.clip((t - times[idx]) / (times[idx + 1] - times[idx]), 0.0, 1.0)
    rows = angles[idx] + _blend(mode, tau)[..., None] * (angles[idx + 1] - angles[idx])
    return idx, tau, rows


def evaluate(keyposes: list[JointPose], mode: str, t: float) -> dict[str, float]:
    """Interpolated angles at an arbitrary time within the key-pose span."""
    if len(keyposes) < 2:
        raise InsufficientData("need at least 2 key poses")
    times, joints, angles = _keypose_arrays(keyposes)
    row = _rows_at(times, angles, mode, t)[2]
    return {j: float(row[i]) for i, j in enumerate(joints)}


def interpolate(keyposes: list[JointPose], mode: str, rate: float) -> Trajectory:
    """Uniformly sampled trajectory through the key poses.

    Samples that land exactly on key-pose times reproduce those poses; per
    joint and per segment the samples stay between the endpoint angles, so
    limits honored by the key poses are honored by the whole trajectory.
    This is :func:`synthesize` without a dictionary.
    """
    return synthesize(keyposes, None, None, mode, rate)


# ---------------------------------------------------------------------------
# Motion dictionary
# ---------------------------------------------------------------------------

def resample_path(poses: list[JointPose], n: int = PATH_SAMPLES) -> MotionPath:
    """Per-joint linear resampling onto n uniform points of normalized time."""
    if len(poses) < 2:
        raise InsufficientData("need at least 2 observed samples")
    times, joints, data = _keypose_arrays(poses)
    u = (times - times[0]) / (times[-1] - times[0])
    grid = np.linspace(0.0, 1.0, n)
    out = np.column_stack([np.interp(grid, u, data[:, c]) for c in range(len(joints))])
    return MotionPath(joints=joints, samples=out)


def path_distance(a: MotionPath, b: MotionPath) -> float:
    """RMS angular difference over all samples and joints, degrees."""
    if a.joints != b.joints or a.samples.shape != b.samples.shape:
        raise ShapeError("paths differ in joints or sample count")
    diff = a.samples - b.samples
    return float(np.sqrt(np.mean(diff * diff)))


def dict_update(mdict: MotionDictionary, key: DictKey, observed: list[JointPose]) -> MotionDictionary:
    """Fold one observed transition into the dictionary.

    The observation is resampled to the fixed path length; if its nearest
    stored path (lowest index on ties) is closer than tau, that path's count
    is bumped, otherwise the observation becomes a new path with count 1.
    """
    motion = resample_path(observed)
    entry = mdict.entries.get(key)
    if entry is None:
        mdict.entries[key] = DictEntry(paths=[DictPath(motion=motion, count=1)])
        return mdict
    best_i = -1
    best_d = math.inf
    for i, p in enumerate(entry.paths):
        d = path_distance(motion, p.motion)
        if d < best_d:
            best_d = d
            best_i = i
    if best_d < mdict.tau:
        entry.paths[best_i].count += 1
    else:
        entry.paths.append(DictPath(motion=motion, count=1))
    return mdict


def dict_lookup(mdict: MotionDictionary, key: DictKey) -> MotionPath | None:
    """Highest-probability path for a key (ties pick the lowest index)."""
    entry = mdict.entries.get(key)
    if entry is None or not entry.paths:
        return None
    best = max(range(len(entry.paths)), key=lambda i: (entry.paths[i].count, -i))
    return entry.paths[best].motion


def synthesize(
    keyposes: list[JointPose],
    states: list[dict[str, LabanSymbol]],
    mdict: MotionDictionary | None,
    mode: str,
    rate: float,
) -> Trajectory:
    """Trajectory through the key poses, preferring dictionary paths.

    For each adjacent key-pose pair, a stored path for the (state, state)
    transition is time-warped onto the interval and shifted by the linear
    ramp of its endpoint residuals; transitions without a stored path use
    plain interpolation. The result passes through every key pose.
    """
    finite(rate, "trajectory rate", 0.0, strict=True)
    if len(keyposes) < 2:
        raise InsufficientData("need at least 2 key poses")
    times, joints, angles = _keypose_arrays(keyposes)
    if states is not None and len(states) != len(keyposes):
        raise ShapeError("states must align 1:1 with key poses")

    grid = uniform_grid(float(times[0]), float(times[-1]), rate)
    idx, tau, rows = _rows_at(times, angles, mode, grid)
    if mdict is not None and states is not None:
        # idx is sorted, so segment k's samples are rows[bounds[k]:bounds[k + 1]]
        bounds = np.searchsorted(idx, np.arange(len(times)))
        path_u = np.linspace(0.0, 1.0, PATH_SAMPLES)
        for k in range(len(keyposes) - 1):
            path = dict_lookup(mdict, DictKey.from_states(states[k], states[k + 1]))
            if path is None:
                continue
            if path.joints != joints:
                raise ShapeError("dictionary path joints do not match key poses")
            seg = slice(bounds[k], bounds[k + 1])
            tk = tau[seg]
            S = path.samples
            base = np.column_stack([np.interp(tk, path_u, S[:, c]) for c in range(len(joints))])
            res0 = angles[k] - S[0]
            res1 = angles[k + 1] - S[-1]
            rows[seg] = base + (1.0 - tk)[:, None] * res0 + tk[:, None] * res1
    return Trajectory(rate=float(rate), joints=joints, times=grid, samples=rows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# |v|·1e6 must stay below 2**52, where every half-integer is a double; larger
# and non-finite values are formatted by the per-row `%` path
_CSV_EXACT_LIMIT = 2.0**52 / 1e6
# rows formatted per array pass: bounds the byte buffer and its temporaries
_CSV_BLOCK_ROWS = 4096
_PAD = 0  # buffer bytes that a value does not use; dropped before decoding


def _csv_rows_percent(block: np.ndarray) -> str:
    row = ",".join(["%.6f"] * block.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in block.tolist())


def _csv_rows_array(block: np.ndarray) -> str:
    """Rows of a finite block with every |v| < _CSV_EXACT_LIMIT, byte for byte
    as ``'%.6f' % v`` writes them.

    rint(|v|·1e6) is the correctly rounded (half-even) integer of the exact
    product unless the rounded product is a half-integer; only there may the
    exact product lie on either side, so those values take their integer
    from ``%``. The sign comes from the sign bit, so -0.0 and negatives that
    round to zero print ``-0.000000``.
    """
    mag = np.abs(block)
    y = mag * 1e6
    r = np.rint(y)
    tie = np.abs(r - y) == 0.5
    if tie.any():
        r[tie] = [float(("%.6f" % m).replace(".", "")) for m in mag[tie].tolist()]
    q = r.astype(np.int64)
    n_int = len(str(int(q.max()) // 1000000))
    # field: sign, n_int integer digits, '.', 6 decimals, separator
    buf = np.empty(block.shape + (n_int + 9,), dtype=np.uint8)
    buf[..., 0] = np.where(np.signbit(block), ord("-"), _PAD)
    buf[..., n_int + 1] = ord(".")
    for pos in [*range(n_int + 7, n_int + 1, -1), *range(n_int, 0, -1)]:  # last digit first
        rest = q // 10
        digit = q - 10 * rest + ord("0")
        if pos < n_int:  # a leading zero of the integer part is pad
            digit = np.where(q > 0, digit, _PAD)
        buf[..., pos] = digit
        q = rest
    buf[:, :-1, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    return buf[buf != _PAD].tobytes().decode("ascii")


def trajectory_to_csv(traj: Trajectory) -> str:
    """Header ``t,<joint>,...`` and one ``%.6f`` row per sample.

    Rows are formatted in blocks of 4096 by an array formatter
    that writes the same bytes as ``%``; a block holding a non-finite value
    or a magnitude of 2**52 / 1e6 (about 4.5e9) or more is formatted by ``%``
    row by row.
    """
    parts = ["t," + ",".join(traj.joints) + "\n"]
    for a in range(0, len(traj.times), _CSV_BLOCK_ROWS):
        block = np.column_stack([traj.times[a:a + _CSV_BLOCK_ROWS], traj.samples[a:a + _CSV_BLOCK_ROWS]])
        exact = np.all(np.abs(block) < _CSV_EXACT_LIMIT)  # False for NaN and inf
        parts.append(_csv_rows_array(block) if exact else _csv_rows_percent(block))
    return "".join(parts)


def serialize_dictionary(mdict: MotionDictionary) -> str:
    """Deterministic JSON: sorted keys, full-precision floats."""
    lines = ["{"]
    lines.append(f'  "samples_per_path": {PATH_SAMPLES},')
    lines.append(f'  "tau": {mdict.tau!r},')
    lines.append('  "entries": {')
    keys = sorted(mdict.entries, key=str)
    for ki, key in enumerate(keys):
        entry = mdict.entries[key]
        lines.append(f'    {json.dumps(str(key))}: [')
        for pi, p in enumerate(entry.paths):
            joints = json.dumps(list(p.motion.joints))
            rows = ", ".join(
                "[" + ", ".join(repr(float(x)) for x in row) + "]" for row in p.motion.samples
            )
            comma = "," if pi + 1 < len(entry.paths) else ""
            lines.append(f'      {{"count": {p.count}, "joints": {joints}, "samples": [{rows}]}}{comma}')
        lines.append("    ]" + ("," if ki + 1 < len(keys) else ""))
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_path(p, where: str) -> DictPath:
    if not isinstance(p, dict):
        raise ParseError(where, "expected an object")
    count, joints, rows = p.get("count"), p.get("joints"), p.get("samples")
    if type(count) is not int:
        raise ParseError(f"{where}.count", "expected an integer")
    if not isinstance(joints, list) or not all(isinstance(j, str) for j in joints):
        raise ParseError(f"{where}.joints", "expected a list of joint names")
    if not (isinstance(rows, list) and all(type(row) is list for row in rows)
            and json_numbers(itertools.chain.from_iterable(rows))):
        raise ParseError(f"{where}.samples", "expected a list of rows of numbers")
    if count < 1:
        raise ValidationError([f"{where}.count: must be at least 1, got {count}"])
    if len(rows) != PATH_SAMPLES or any(len(row) != len(joints) for row in rows):
        raise ValidationError([f"{where}.samples: expected {PATH_SAMPLES} rows of {len(joints)} angles"])
    try:
        samples = np.array(rows, dtype=float)
        all_finite = bool(np.all(np.isfinite(samples)))
    except OverflowError:  # an integer beyond the float range
        all_finite = False
    if not all_finite:
        raise ValidationError([f"{where}.samples: non-finite angle"])
    return DictPath(motion=MotionPath(joints=tuple(joints), samples=samples), count=count)


def parse_dictionary(text: str) -> MotionDictionary:
    """Inverse of :func:`serialize_dictionary`.

    Malformed JSON and wrong types raise ParseError; a ``samples_per_path``
    other than PATH_SAMPLES, a key with no paths, a path that is not
    PATH_SAMPLES rows of one angle per joint, a non-finite angle, a count
    below 1 and a tau that is not a finite number > 0 raise ValidationError.
    """
    obj = read_json(text)
    if obj.get("samples_per_path") != PATH_SAMPLES:
        raise ValidationError([f"$.samples_per_path: expected {PATH_SAMPLES}, got {obj.get('samples_per_path')!r}"])
    tau, entries = obj.get("tau"), obj.get("entries")
    if not json_numbers([tau]):
        raise ParseError("$.tau", "expected a number")
    mdict = MotionDictionary(tau=finite(tau, "$.tau", 0.0, strict=True, error=ValidationError))
    if not isinstance(entries, dict):
        raise ParseError("$.entries", "expected an object")
    for key_text, paths in entries.items():
        where = f"$.entries[{json.dumps(key_text)}]"
        try:
            key = DictKey.parse(key_text)
        except ValueError:
            raise ParseError(where, "not a (from-state)->(to-state) key") from None
        if not isinstance(paths, list):
            raise ParseError(where, "expected a list of paths")
        if not paths:
            raise ValidationError([f"{where}: no paths"])
        mdict.entries[key] = DictEntry(paths=[_parse_path(p, f"{where}[{i}]") for i, p in enumerate(paths)])
    return mdict


def save_dictionary(mdict: MotionDictionary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_dictionary(mdict))


def load_dictionary(path: str) -> MotionDictionary:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dictionary(fh.read())
