"""Per-part motion energy, peak detection, and key-frame merging.

Each tracked body part gets its own scalar energy signal built from its
smoothed position: normalized acceleration magnitude minus normalized speed.
Brief stops show up as positive peaks (deceleration is still high while the
speed has already collapsed), so the peaks of the signal mark the moments a
part settles into a pose. Peaks from different parts that fall close together
are averaged into one shared key frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, InsufficientData
from .skeleton import JointName, SkeletonSequence

DEFAULT_TRACKED_PARTS: tuple[JointName, ...] = (
    JointName.WristLeft,
    JointName.WristRight,
    JointName.ElbowLeft,
    JointName.ElbowRight,
    JointName.Head,
)


@dataclass(frozen=True)
class EnergyParams:
    """Tunable knobs of the detector.

    sigma          Gaussian smoothing width, seconds
    prominence     minimum topographic prominence of an accepted peak
    min_separation minimum spacing between surviving peaks, seconds
    merge_window   single-linkage gap for clustering peaks across parts, seconds
    tracked_parts  joints whose energy signals vote on key frames
    peak_mode      'max' detects energy maxima; 'min' is an escape hatch that
                   detects minima instead
    """

    sigma: float = 0.1
    prominence: float = 0.1
    min_separation: float = 0.25
    merge_window: float = 0.2
    tracked_parts: tuple[JointName, ...] = DEFAULT_TRACKED_PARTS
    peak_mode: str = "max"

    def __post_init__(self):
        # every comparison with NaN is False, so NaN fails each check
        if not 0.0 < self.sigma < math.inf:
            raise BadInput(f"sigma must be a finite number > 0, got {self.sigma}")
        if not 0.0 <= self.prominence <= 1.0:
            raise BadInput(f"prominence must lie in [0, 1], got {self.prominence}")
        for name in ("min_separation", "merge_window"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise BadInput(f"{name} must be a finite number >= 0, got {getattr(self, name)}")
        if self.peak_mode not in ("max", "min"):
            raise BadInput("peak_mode must be 'max' or 'min'")


@dataclass(eq=False)
class EnergySeries:
    """Energy samples for one part, aligned with the sequence frames."""

    part: JointName
    values: np.ndarray  # ea - es
    ea: np.ndarray      # normalized acceleration magnitude, in [0, 1]
    es: np.ndarray      # normalized speed magnitude, in [0, 1]


@dataclass(eq=False)
class KeyFrameSet:
    per_part: dict[JointName, list[int]]
    merged: list[int]
    params: EnergyParams


def smooth_signal(xs, sigma: float, rate: float) -> np.ndarray:
    """Convolve with a unit-sum Gaussian kernel truncated at +/- 3 sigma.

    The kernel is symmetric (zero lag) and edges are handled by replicating
    the boundary samples, so output length equals input length and constants
    pass through unchanged.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return xs.copy()
    s = sigma * rate  # width in samples
    r = int(math.ceil(3.0 * s))
    k = np.arange(-r, r + 1, dtype=float)
    w = np.exp(-(k * k) / (2.0 * s * s))
    w /= w.sum()
    pad = np.concatenate([np.full(r, xs[0]), xs, np.full(r, xs[-1])])
    return np.convolve(pad, w, mode="valid")


def _minmax(x: np.ndarray) -> np.ndarray:
    lo = float(x.min())
    hi = float(x.max())
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def _derivatives(x: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Central differences, one-sided at the boundaries. Needs >= 3 samples."""
    n = x.size
    v = np.empty(n)
    a = np.empty(n)
    v[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    v[0] = (x[1] - x[0]) / dt
    v[-1] = (x[-1] - x[-2]) / dt
    a[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (dt * dt)
    a[0] = (x[2] - 2.0 * x[1] + x[0]) / (dt * dt)
    a[-1] = (x[-1] - 2.0 * x[-2] + x[-3]) / (dt * dt)
    return v, a


def energy(seq: SkeletonSequence, part: JointName, params: EnergyParams) -> EnergySeries:
    """Energy signal of one part over a uniformly sampled sequence.

    The x, y, z coordinate signals are smoothed first, then differentiated;
    acceleration and speed magnitudes (each scaled by 1/sqrt(3)) are min-max
    normalized into [0, 1] over the whole sequence. A constant magnitude
    series normalizes to all zeros.
    """
    if len(seq) < 3:
        raise InsufficientData("energy needs at least 3 frames")
    if seq.sample_rate is None:
        raise InsufficientData("sequence must be uniformly sampled (resample first)")
    rate = seq.sample_rate
    dt = 1.0 / rate
    coords = seq.positions_of(part)
    vs, accs = [], []
    for c in range(3):
        x = smooth_signal(coords[:, c], params.sigma, rate)
        v, a = _derivatives(x, dt)
        vs.append(v)
        accs.append(a)
    inv_sqrt3 = 1.0 / math.sqrt(3.0)
    raw_ea = inv_sqrt3 * np.sqrt(accs[0] ** 2 + accs[1] ** 2 + accs[2] ** 2)
    raw_es = inv_sqrt3 * np.sqrt(vs[0] ** 2 + vs[1] ** 2 + vs[2] ** 2)
    ea = _minmax(raw_ea)
    es = _minmax(raw_es)
    return EnergySeries(part=part, values=ea - es, ea=ea, es=es)


def _local_maxima(vals: np.ndarray) -> list[int]:
    """Interior local maxima; a flat top counts once, at its middle sample."""
    n = vals.size
    out = []
    i = 1
    while i < n - 1:
        if vals[i] > vals[i - 1]:
            j = i
            while j + 1 < n and vals[j + 1] == vals[i]:
                j += 1
            if j < n - 1 and vals[j + 1] < vals[i]:
                out.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return out


def _prominence(vals: np.ndarray, peak: int) -> float:
    """Topographic prominence: drop to the highest saddle on either side."""
    h = vals[peak]
    lo_left = h
    k = peak - 1
    while k >= 0 and vals[k] <= h:
        lo_left = min(lo_left, vals[k])
        k -= 1
    lo_right = h
    k = peak + 1
    while k < vals.size and vals[k] <= h:
        lo_right = min(lo_right, vals[k])
        k += 1
    return float(h - max(lo_left, lo_right))


def detect_peaks(es: EnergySeries, params: EnergyParams, rate: float) -> list[int]:
    """Frame indices of qualifying energy peaks, sorted ascending.

    Local maxima with prominence >= params.prominence are filtered greedily,
    highest value first, so that survivors are at least min_separation apart.
    """
    vals = es.values if params.peak_mode == "max" else -es.values
    candidates = [p for p in _local_maxima(vals) if _prominence(vals, p) >= params.prominence]
    min_sep_frames = params.min_separation * rate
    order = sorted(candidates, key=lambda p: (-vals[p], p))
    kept: list[int] = []
    for p in order:
        if all(abs(p - q) >= min_sep_frames for q in kept):
            kept.append(p)
    return sorted(kept)


def merge_keyframes(per_part: dict[JointName, list[int]], params: EnergyParams, rate: float) -> KeyFrameSet:
    """Cluster the union of per-part peaks and average each cluster.

    Single-linkage clustering with gap <= merge_window * rate frames; each
    cluster becomes the half-up rounded mean of its member indices. Clusters
    whose means end up closer than min_separation * rate are merged further
    so the result always respects the separation bound.
    """
    indices = sorted({i for idxs in per_part.values() for i in idxs})
    gap = params.merge_window * rate
    min_sep_frames = params.min_separation * rate
    clusters: list[list[int]] = []
    for i in indices:
        if clusters and i - clusters[-1][-1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    def mean_of(c: list[int]) -> int:
        return int(math.floor(sum(c) / len(c) + 0.5))

    while True:
        means = [mean_of(c) for c in clusters]
        violation = next(
            (k for k in range(len(means) - 1) if means[k + 1] - means[k] < min_sep_frames),
            None,
        )
        if violation is None:
            break
        clusters[violation] = clusters[violation] + clusters[violation + 1]
        del clusters[violation + 1]

    return KeyFrameSet(per_part={k: list(v) for k, v in per_part.items()}, merged=means, params=params)


def extract_keyframes(seq: SkeletonSequence, params: EnergyParams | None = None) -> KeyFrameSet:
    """Full detector: per-part energy -> peaks -> merged key frames."""
    params = params or EnergyParams()
    if seq.sample_rate is None:
        raise InsufficientData("sequence must be uniformly sampled (resample first)")
    rate = seq.sample_rate
    per_part = {
        part: detect_peaks(energy(seq, part, params), params, rate)
        for part in params.tracked_parts
    }
    return merge_keyframes(per_part, params, rate)
