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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInput, InsufficientData, ShapeError, TimeOrderError
from .laban import Direction, LabanSymbol, Level
from .robot import JointPose

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
        _check_rate(rate)
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
        if self.tau <= 0:
            raise ValueError("tau must be positive")


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate > 0):
        raise BadInput(f"trajectory rate must be a finite number > 0, got {rate}")


def _keypose_arrays(keyposes: list[JointPose]) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    times = np.array([p.t for p in keyposes], dtype=float)
    if np.any(np.diff(times) <= 0):
        bad = int(np.argmax(np.diff(times) <= 0)) + 1
        raise TimeOrderError(bad, "key pose times must be strictly increasing")
    joints = tuple(sorted(keyposes[0].angles)) if keyposes else ()
    for p in keyposes:
        if tuple(sorted(p.angles)) != joints:
            raise ShapeError("key poses disagree on joint names")
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


def evaluate(keyposes: list[JointPose], mode: str, t: float) -> dict[str, float]:
    """Interpolated angles at an arbitrary time within the key-pose span."""
    if len(keyposes) < 2:
        raise InsufficientData("need at least 2 key poses")
    times, joints, angles = _keypose_arrays(keyposes)
    t = min(max(t, times[0]), times[-1])
    k = int(np.searchsorted(times, t, side="right")) - 1
    k = min(max(k, 0), len(times) - 2)
    tau = (t - times[k]) / (times[k + 1] - times[k])
    s = _blend(mode, float(tau))
    row = angles[k] + s * (angles[k + 1] - angles[k])
    return {j: float(row[i]) for i, j in enumerate(joints)}


def _sample_grid(t0: float, t1: float, rate: float) -> np.ndarray:
    # the microsecond slack keeps the final key time on the grid even when
    # 6-decimal quantization left the span a hair under a whole step count
    n = int(math.floor((t1 - t0) * rate + 1e-6 * rate + 1e-9)) + 1
    return t0 + np.arange(n) / rate


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
    times = np.array([p.t for p in poses], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise TimeOrderError(int(np.argmax(np.diff(times) <= 0)) + 1)
    joints = tuple(sorted(poses[0].angles))
    for p in poses:
        if tuple(sorted(p.angles)) != joints:
            raise ShapeError("observed samples disagree on joint names")
    u = (times - times[0]) / (times[-1] - times[0])
    grid = np.linspace(0.0, 1.0, n)
    data = np.array([[p.angles[j] for j in joints] for p in poses], dtype=float)
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
    _check_rate(rate)
    if len(keyposes) < 2:
        raise InsufficientData("need at least 2 key poses")
    times, joints, angles = _keypose_arrays(keyposes)
    if states is not None and len(states) != len(keyposes):
        raise ShapeError("states must align 1:1 with key poses")

    grid = _sample_grid(float(times[0]), float(times[-1]), rate)
    idx = np.clip(np.searchsorted(times, grid, side="right") - 1, 0, len(times) - 2)
    tau = np.clip((grid - times[idx]) / (times[idx + 1] - times[idx]), 0.0, 1.0)
    rows = angles[idx] + _blend(mode, tau)[:, None] * (angles[idx + 1] - angles[idx])
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

def trajectory_to_csv(traj: Trajectory) -> str:
    row = ",".join(["%.6f"] * (1 + len(traj.joints)))
    lines = ["t," + ",".join(traj.joints)]
    lines.extend(row % tuple(r) for r in np.column_stack([traj.times, traj.samples]).tolist())
    return "\n".join(lines) + "\n"


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


def parse_dictionary(text: str) -> MotionDictionary:
    obj = json.loads(text)
    mdict = MotionDictionary(tau=float(obj.get("tau", DEFAULT_TAU_DEG)))
    for key_text, paths in obj.get("entries", {}).items():
        key = DictKey.parse(key_text)
        entry = DictEntry()
        for p in paths:
            motion = MotionPath(
                joints=tuple(p["joints"]),
                samples=np.array(p["samples"], dtype=float),
            )
            entry.paths.append(DictPath(motion=motion, count=int(p["count"])))
        mdict.entries[key] = entry
    return mdict


def save_dictionary(mdict: MotionDictionary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_dictionary(mdict))


def load_dictionary(path: str) -> MotionDictionary:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dictionary(fh.read())
