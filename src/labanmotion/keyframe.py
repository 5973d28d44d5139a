"""Per-part motion energy, peak detection, and key-frame merging.

Each tracked body part gets its own scalar energy signal, one array value
per frame, built from its smoothed position: normalized acceleration
magnitude minus normalized speed.
Brief stops show up as positive peaks (deceleration is still high while the
speed has already collapsed), so the peaks of the signal mark the moments a
part settles into a pose. Peaks from different parts that fall close together
are averaged into one shared key frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BadInput, InsufficientData, finite
from .skeleton import MAX_SAMPLES, JointName, SkeletonSequence

# joints whose energy signals vote on key frames
DEFAULT_TRACKED_PARTS: tuple[JointName, ...] = (
    JointName.WristLeft,
    JointName.WristRight,
    JointName.ElbowLeft,
    JointName.ElbowRight,
    JointName.Head,
)


class _EnergyFields(NamedTuple):
    sigma: float = 0.1
    prominence: float = 0.1
    min_separation: float = 0.25
    merge_window: float = 0.2


class EnergyParams(_EnergyFields):
    """Tunable knobs of the detector, checked when made.

    sigma          Gaussian smoothing width, seconds
    prominence     minimum topographic prominence of an accepted peak
    min_separation minimum spacing between surviving peaks, seconds
    merge_window   single-linkage gap for clustering peaks across parts, seconds
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # a NamedTuple class itself may not define __new__
        self = super().__new__(cls, *args, **kwargs)
        finite(self.sigma, "sigma", 0.0, strict=True)
        finite(self.prominence, "prominence", 0.0, 1.0)
        finite(self.min_separation, "min_separation", 0.0)
        finite(self.merge_window, "merge_window", 0.0)
        return self


class KeyFrameSet:
    def __init__(self, per_part: dict[JointName, list[int]], merged: list[int], params: EnergyParams):
        self.per_part = per_part
        self.merged = merged
        self.params = params


def gaussian_kernel(sigma: float, rate: float, n: int) -> np.ndarray:
    """The weights that :func:`_convolve_replicated` convolves a signal of
    ``n`` samples with: a unit-sum Gaussian truncated at +/- 3 sigma, so the
    smoothing has zero lag and passes constants through unchanged.

    A kernel longer than :data:`MAX_SAMPLES`, or one so narrow that
    1 / (2 s^2) overflows, is refused before anything is allocated. A kernel
    wider than the signal has the weight of its taps beyond the signal folded
    into its outermost taps, so it keeps at most 2n - 1 taps.
    """
    s = sigma * rate  # width in samples
    # the kernel has 2 * ceil(3 s) + 1 samples and divides by 2 s^2, which must be
    # a normal float (0 gives 0/0, a subnormal overflows); False for inf and NaN
    if not (2.0 * s * s >= np.finfo(float).tiny and 3.0 * s <= (MAX_SAMPLES - 1) // 2):
        raise BadInput(f"sigma {sigma:g} s at {rate:g} Hz gives no usable kernel within {MAX_SAMPLES} samples")
    finite(sigma, "sigma", 0.0, strict=True)
    r = int(math.ceil(3.0 * s))
    k = np.arange(-r, r + 1, dtype=float)
    w = np.exp(-(k * k) / (2.0 * s * s))
    w /= w.sum()
    m = min(r, max(n - 1, 0))
    if m < r:  # taps beyond m only meet replicated edge samples: fold each tail into the outermost tap kept
        tails = w[:r - m].sum(), w[r + m + 1:].sum()
        w = w[r - m:r + m + 1].copy()
        w[0] += tails[0]
        w[-1] += tails[1]
    return w


def _convolve_replicated(xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``xs`` convolved with the odd-length kernel ``w``, its edge samples
    replicated, so the output has the input's length. With the kernel folded
    to the signal, n samples cost O(n * min(r, n)) for radius r."""
    if xs.size == 0:
        return xs.copy()
    m = len(w) // 2
    pad = np.concatenate([np.full(m, xs[0]), xs, np.full(m, xs[-1])])
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


def energy(seq: SkeletonSequence, part: JointName, params: EnergyParams,
           kernel: np.ndarray | None = None) -> np.ndarray:
    """Energy signal of one part over a uniformly sampled sequence: an (n,)
    array aligned with the frames, values in [-1, 1].

    The x, y, z coordinate signals are smoothed first (with ``kernel``, the
    clip's :func:`gaussian_kernel`, built here if not given), then differentiated;
    acceleration and speed magnitudes (each scaled by 1/sqrt(3)) are min-max
    normalized into [0, 1] over the whole sequence, and the signal is the
    normalized acceleration minus the normalized speed. A constant magnitude
    series normalizes to all zeros. Coordinates so large that a derivative
    or its square overflows raise BadInput naming the part.
    """
    if len(seq) < 3:
        raise InsufficientData("energy needs at least 3 frames")
    if seq.sample_rate is None:
        raise InsufficientData("sequence must be uniformly sampled (resample first)")
    rate = seq.sample_rate
    dt = 1.0 / rate
    coords = seq.positions_of(part)
    if kernel is None:
        kernel = gaussian_kernel(params.sigma, rate, len(seq))
    vs, accs = [], []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for c in range(3):
                x = _convolve_replicated(coords[:, c], kernel)
                v, a = _derivatives(x, dt)
                vs.append(v)
                accs.append(a)
            inv_sqrt3 = 1.0 / math.sqrt(3.0)
            raw_ea = inv_sqrt3 * np.sqrt(accs[0] ** 2 + accs[1] ** 2 + accs[2] ** 2)
            raw_es = inv_sqrt3 * np.sqrt(vs[0] ** 2 + vs[1] ** 2 + vs[2] ** 2)
            ea = _minmax(raw_ea)
            es = _minmax(raw_es)
    except FloatingPointError:
        raise BadInput(f"energy of {part.value} overflows: its coordinates are too large") from None
    return ea - es


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    """Interior local maxima; a flat top counts once, at its middle sample.

    The signal is cut into runs of equal samples. A run is a peak when the
    signal rises into it and falls out of it; runs touching either end are
    not interior and never count.
    """
    if vals.size < 3:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.flatnonzero(vals[1:] != vals[:-1]) + 1))
    ends = np.append(starts[1:] - 1, vals.size - 1)
    run = vals[starts]
    k = np.flatnonzero((run[1:-1] > run[:-2]) & (run[1:-1] > run[2:])) + 1
    return (starts[k] + ends[k]) // 2


def _saddles(heights: list[float], valleys: list[float]) -> list[float]:
    """For each peak in order, its lowest sample back to the nearest
    strictly higher peak before it (or to the start); ``valleys[j]`` is the
    minimum between peak j - 1 (or the start) and peak j."""
    out = []
    stack: list[tuple[float, float]] = []  # (height, its saddle)
    for h, low in zip(heights, valleys):
        while stack and stack[-1][0] <= h:
            low = min(low, stack.pop()[1])
        out.append(low)
        stack.append((h, low))
    return out


def _prominences(vals: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence of each peak: drop to the highest saddle on
    either side.

    Walking from a peak to the nearest strictly higher sample covers exactly
    the valleys up to the nearest strictly higher peak (or the signal's end),
    so one monotonic stack per side over the peaks finds every saddle.
    """
    heights = vals[peaks].tolist()
    valleys = np.minimum.reduceat(vals, np.concatenate(([0], peaks))).tolist()
    left = _saddles(heights, valleys[:-1])
    right = _saddles(heights[::-1], valleys[:0:-1])[::-1]
    return np.asarray(heights) - np.maximum(left, right)


def detect_peaks(values: np.ndarray, params: EnergyParams, rate: float) -> list[int]:
    """Frame indices of qualifying peaks of an (n,) :func:`energy` signal,
    sorted ascending.

    Local maxima with prominence >= params.prominence are filtered greedily,
    highest value first, so that survivors are at least min_separation apart.
    """
    peaks = _local_maxima(values)
    if peaks.size == 0:
        return []
    candidates = peaks[_prominences(values, peaks) >= params.prominence]
    from bisect import bisect  # here, so that importing the package does not load it
    min_sep_frames = params.min_separation * rate
    kept: list[int] = []
    # highest first, ties by index; the sorted survivors closest on either
    # side are the only ones that can be too near
    for p in candidates[np.lexsort((candidates, -values[candidates]))].tolist():
        k = bisect(kept, p)
        far_left = k == 0 or p - kept[k - 1] >= min_sep_frames
        far_right = k == len(kept) or kept[k] - p >= min_sep_frames
        if far_left and far_right:
            kept.insert(k, p)
    return kept


def merge_keyframes(per_part: dict[JointName, list[int]], params: EnergyParams, rate: float) -> KeyFrameSet:
    """Cluster the union of per-part peaks and average each cluster.

    Single-linkage clustering with gap <= merge_window * rate frames; each
    cluster becomes the half-up rounded mean of its member indices. Clusters
    whose means end up closer than min_separation * rate are merged further,
    leftmost pair first, so the result always respects the separation bound.
    """
    indices = sorted({i for idxs in per_part.values() for i in idxs})
    gap = params.merge_window * rate
    min_sep_frames = params.min_separation * rate
    clusters: list[list[int]] = []  # [sum, count] of each cluster's members
    for i in indices:
        if clusters and i - last <= gap:
            clusters[-1][0] += i
            clusters[-1][1] += 1
        else:
            clusters.append([i, 1])
        last = i

    def mean_of(c: list[int]) -> int:
        return int(math.floor(c[0] / c[1] + 0.5))

    # a cluster joins the stack only once every pair below it is far enough
    # apart, so the top pair is always the leftmost one that can be too near
    stack: list[list[int]] = []
    for c in clusters:
        stack.append(c)
        while len(stack) > 1 and mean_of(stack[-1]) - mean_of(stack[-2]) < min_sep_frames:
            total, count = stack.pop()
            stack[-1][0] += total
            stack[-1][1] += count
    means = [mean_of(c) for c in stack]
    return KeyFrameSet(per_part={k: list(v) for k, v in per_part.items()}, merged=means, params=params)


def extract_keyframes(seq: SkeletonSequence, params: EnergyParams | None = None) -> KeyFrameSet:
    """Full detector: per-part energy -> peaks -> merged key frames."""
    params = params or EnergyParams()
    if seq.sample_rate is None:
        raise InsufficientData("sequence must be uniformly sampled (resample first)")
    rate = seq.sample_rate
    # one kernel for every part's signals; energy refuses a clip under 3 frames first
    kernel = gaussian_kernel(params.sigma, rate, len(seq)) if len(seq) >= 3 else None
    per_part = {
        part: detect_peaks(energy(seq, part, params, kernel), params, rate)
        for part in DEFAULT_TRACKED_PARTS
    }
    return merge_keyframes(per_part, params, rate)
