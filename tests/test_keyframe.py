import math

import numpy as np
import pytest

from labanmotion import keyframe
from labanmotion.errors import BadInput, InsufficientData
from labanmotion.keyframe import (
    DEFAULT_TRACKED_PARTS,
    EnergyParams,
    KeyFrameSet,
    detect_peaks,
    energy,
    extract_keyframes,
    merge_keyframes,
)
from labanmotion.skeleton import ALL_JOINTS, MAX_SAMPLES, JointName, SkeletonSequence, synth_motion

from conftest import oracle_energy, oracle_smooth


# Upright skeleton on a 1/64 m grid so translated copies stay exact in floats.
_GRID_BASE = {
    JointName.SpineBase: (0, 0, 0),
    JointName.SpineShoulder: (0, 0, 32),
    JointName.Neck: (0, 0, 36),
    JointName.Head: (0, 0, 46),
    JointName.ShoulderLeft: (0, 12, 32),
    JointName.ShoulderRight: (0, -12, 32),
    JointName.ElbowLeft: (0, 31, 32),
    JointName.ElbowRight: (0, -31, 32),
    JointName.WristLeft: (0, 48, 32),
    JointName.WristRight: (0, -48, 32),
    JointName.HandLeft: (0, 53, 32),
    JointName.HandRight: (0, -53, 32),
}


def _translated_sequence(step_64ths=(3, -2, 1), n=64, rate=32.0):
    """Rigid constant-velocity translation built exactly: every coordinate is
    an integer number of 1/64 m, so finite differences of the affine motion
    are exact and the acceleration is a true zero rather than rounding dust."""
    base = np.array([_GRID_BASE[j] for j in ALL_JOINTS])
    positions = (base + np.arange(n)[:, None, None] * np.array(step_64ths)) / 64.0
    return SkeletonSequence(np.arange(n) / rate, positions, sample_rate=rate)


# ---------------------------------------------------------------------------
# smoothing: the clip's Gaussian kernel, convolved with edges replicated
# ---------------------------------------------------------------------------

def _smooth(xs, sigma, rate):
    """``xs`` smoothed as :func:`energy` smooths each coordinate signal."""
    xs = np.asarray(xs, dtype=float)
    return keyframe._convolve_replicated(xs, keyframe.gaussian_kernel(sigma, rate, xs.size))


def test_smooth_constant_preserved():
    out = _smooth([5.0, 5.0, 5.0, 5.0], sigma=0.1, rate=30.0)
    assert np.allclose(out, 5.0, atol=1e-12)


def test_smooth_impulse_center_weight():
    # sigma * rate = 1 sample; the center output must equal the normalized
    # kernel weight at zero, computed here independently.
    rate = 30.0
    sigma = 1.0 / rate
    n = 21
    xs = np.zeros(n)
    xs[10] = 1.0
    out = _smooth(xs, sigma, rate)
    weights = [math.exp(-(k * k) / 2.0) for k in range(-3, 4)]
    w0 = weights[3] / sum(weights)
    assert out[10] == pytest.approx(w0, abs=1e-12)
    assert np.allclose(out, out[::-1], atol=1e-15)  # symmetric bell


def test_smooth_mass_conservation_interior_impulse():
    rate = 30.0
    sigma = 0.1
    xs = np.zeros(41)
    xs[20] = 2.5
    out = _smooth(xs, sigma, rate)
    assert float(np.sum(out)) == pytest.approx(float(np.sum(xs)), abs=1e-9)


def test_smooth_kernel_weights_sum_to_one():
    # a constant 1 series exposes the kernel sum directly
    out = _smooth(np.ones(50), sigma=0.2, rate=30.0)
    assert np.max(np.abs(out - 1.0)) < 1e-12


def test_smooth_empty_series():
    assert _smooth([], sigma=0.1, rate=30.0).size == 0


def test_smooth_kernel_is_bounded():
    # the kernel has 2 * ceil(3 * sigma * rate) + 1 samples
    at_bound = 2 * math.ceil(3 * 333333.0) + 1
    assert at_bound <= MAX_SAMPLES
    assert np.allclose(_smooth([1.0, 2.0, 3.0], sigma=333333.0, rate=1.0), 2.0, atol=1e-6)
    for sigma in (333333.34, 1e9, 1e300, math.inf):
        with pytest.raises(BadInput, match="samples"):
            _smooth([1.0, 2.0, 3.0], sigma=sigma, rate=1.0)


def test_smooth_refuses_a_kernel_without_width():
    # 2 s^2 must be a normal float: at 1e-160 s (3e-159 samples) 1 / (2 s^2)
    # overflows, and below about 1e-154 samples 2 s^2 is 0 and every weight NaN
    assert np.array_equal(_smooth([1.0, 2.0, 3.0], sigma=1e-150, rate=1.0), [1.0, 2.0, 3.0])
    for sigma in (1e-160, 1e-300, 0.0, -0.1, math.nan):
        with pytest.raises(BadInput, match="sigma"):
            _smooth([1.0, 2.0, 3.0], sigma=sigma, rate=30.0)


def test_smooth_matches_oracle(rng):
    xs = rng.normal(size=80)
    out = _smooth(xs, sigma=0.13, rate=30.0)
    ref = oracle_smooth(list(xs), 0.13, 30.0)
    assert np.max(np.abs(out - np.array(ref))) < 1e-9


def _smooth_in_full(xs, sigma, rate):
    """Reference: the whole kernel convolved over r replicated edge samples per side."""
    s = sigma * rate
    r = int(math.ceil(3.0 * s))
    k = np.arange(-r, r + 1, dtype=float)
    w = np.exp(-(k * k) / (2.0 * s * s))
    w /= w.sum()
    return np.convolve(np.concatenate([np.full(r, xs[0]), xs, np.full(r, xs[-1])]), w, mode="valid")


def test_smooth_folds_a_kernel_wider_than_the_clip(rng, monkeypatch):
    # a clip of n samples meets at most 2n - 1 taps; the weight beyond them
    # goes to the outermost taps, within 1e-12 of the whole kernel
    convolve = np.convolve
    widths = []
    monkeypatch.setattr(np, "convolve", lambda a, v, mode: widths.append(len(v)) or convolve(a, v, mode))
    for n in (1, 2, 3, 10, 50, 237):
        xs = rng.normal(size=n)
        for sigma in (0.1, 1.0, 10.0, 100.0):
            widths.clear()
            out = _smooth(xs, sigma, 30.0)
            assert widths == [min(2 * math.ceil(3.0 * (sigma * 30.0)) + 1, 2 * n - 1)], (n, sigma)
            with monkeypatch.context() as m:
                m.setattr(np, "convolve", convolve)
                want = _smooth_in_full(xs, sigma, 30.0)
            assert np.max(np.abs(out - want)) < 1e-12, (n, sigma)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_static_all_zero():
    seq = synth_motion({"pattern": "reach_sequence", "poses": [["place_low", 1.0]]}, rate=30.0)
    values = energy(seq, JointName.WristRight, EnergyParams())
    assert values.shape == (len(seq),)
    assert np.all(values == 0.0)


def test_energy_uniform_motion_all_zero():
    # constant-velocity translation: acceleration is identically zero and the
    # speed magnitude is constant, so both normalize to zero. A sub-sample
    # sigma keeps the smoothing kernel an exact identity so the boundary
    # replication cannot bend the straight-line signal.
    seq = _translated_sequence()
    assert np.all(energy(seq, JointName.WristRight, EnergyParams(sigma=1e-4)) == 0.0)


def test_energy_uniform_motion_matches_oracle_at_default_sigma():
    seq = _translated_sequence()
    params = EnergyParams()
    values = energy(seq, JointName.WristRight, params)
    ref = oracle_energy(seq, JointName.WristRight, params.sigma)
    assert np.max(np.abs(values - np.array(ref))) < 1e-9


def test_energy_two_pose_reach_sequence_peak_inside_hold():
    hold = 0.5
    seq = synth_motion(
        {"pattern": "reach_sequence", "part": "right_arm",
         "poses": [["place_low", 0.6], ["forward_middle", hold]]},
        rate=30.0,
    )
    params = EnergyParams()
    # brute-force oracle locates the maximum independently
    ref = oracle_energy(seq, JointName.WristRight, params.sigma)
    ts = seq.times
    hold_start = ts[-1] - hold
    t_peak_oracle = ts[int(np.argmax(ref))]
    assert hold_start - 1e-9 <= t_peak_oracle <= ts[-1] + 1e-9
    assert int(np.argmax(energy(seq, JointName.WristRight, params))) == int(np.argmax(ref))


def test_energy_bounds_and_consistency(rng):
    seq = synth_motion(
        {"pattern": "reach_sequence", "part": "left_arm",
         "poses": [["place_low", 0.5], ["left_middle", 0.5], ["place_high", 0.5]]},
        rate=30.0,
    )
    for part in (JointName.WristLeft, JointName.ElbowLeft, JointName.Head):
        values = energy(seq, part, EnergyParams())
        assert values.shape == (len(seq),)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)


def test_energy_too_short():
    seq = synth_motion({"pattern": "reach_sequence", "poses": [["place_low", 1.0]]}, rate=30.0)
    short = SkeletonSequence(seq.times[:2], seq.positions[:2], sample_rate=30.0)
    with pytest.raises(InsufficientData):
        energy(short, JointName.WristRight, EnergyParams())


def test_energy_oracle_equivalence_randomized(rng):
    pose_names = ["place_low", "forward_middle", "left_high", "right_middle",
                  "forward_high", "left_forward_middle", "place_high"]
    params = EnergyParams()
    for _ in range(10):
        k = int(rng.integers(2, 5))
        picks = list(rng.choice(pose_names, size=k, replace=False))
        poses = [[name, float(rng.uniform(0.3, 0.7))] for name in picks]
        seq = synth_motion({"pattern": "reach_sequence", "part": "right_arm", "poses": poses}, rate=30.0)
        assert len(seq) <= 200
        for part in (JointName.WristRight, JointName.ElbowRight):
            values = energy(seq, part, params)
            ref = oracle_energy(seq, part, params.sigma)
            assert np.max(np.abs(values - np.array(ref))) < 1e-9


# ---------------------------------------------------------------------------
# detect_peaks
# ---------------------------------------------------------------------------

def test_peaks_all_zero():
    assert detect_peaks(np.zeros(50), EnergyParams(), 30.0) == []


def test_peaks_single_triangle():
    vals = np.zeros(31)
    apex = 15
    for i in range(31):
        vals[i] = max(0.0, 0.8 * (1.0 - abs(i - apex) / 8.0))
    assert detect_peaks(vals, EnergyParams(), 30.0) == [apex]


def test_peaks_close_pair_keeps_taller():
    # two bumps 3 frames apart (0.1 s at 30 Hz) with min_separation 0.25 s:
    # the greedy filter keeps only the taller one
    vals = np.zeros(40)
    vals[18] = 0.5
    vals[21] = 0.8
    out = detect_peaks(vals, EnergyParams(min_separation=0.25), 30.0)
    assert out == [21]


def test_peaks_prominence_threshold():
    # a small ripple riding on a tall shoulder has low prominence
    vals = np.zeros(60)
    vals[10:31] = np.linspace(0.0, 1.0, 21)
    vals[31:52] = np.linspace(1.0, 0.0, 21)
    vals[40] += 0.05  # prominence 0.05 < 0.1
    out = detect_peaks(vals, EnergyParams(), 30.0)
    assert out == [30]


def test_peaks_sorted_and_separated(rng):
    params = EnergyParams()
    for _ in range(20):
        vals = _smooth(rng.normal(size=200), sigma=0.05, rate=30.0)
        vals = (vals - vals.min()) / (vals.max() - vals.min()) * 2.0 - 1.0
        out = detect_peaks(vals, params, 30.0)
        assert out == sorted(out)
        for a, b in zip(out, out[1:]):
            assert b - a >= params.min_separation * 30.0


def test_peaks_a_dip_gives_no_peak():
    vals = np.zeros(40)
    vals[20] = -0.9  # a dip: the detector finds maxima only
    assert detect_peaks(vals, EnergyParams(), 30.0) == []


# ---------------------------------------------------------------------------
# merge_keyframes
# ---------------------------------------------------------------------------

def test_merge_average_of_neighboring_parts():
    params = EnergyParams(merge_window=10.0 / 30.0, min_separation=0.25)
    kfs = merge_keyframes(
        {JointName.WristLeft: [100], JointName.WristRight: [104]}, params, 30.0
    )
    assert kfs.merged == [102]


def test_merge_singleton():
    kfs = merge_keyframes({JointName.WristLeft: [50]}, EnergyParams(), 30.0)
    assert kfs.merged == [50]


def test_merge_far_apart_untouched():
    params = EnergyParams(merge_window=6.0 / 30.0)
    kfs = merge_keyframes({JointName.WristLeft: [10, 200]}, params, 30.0)
    assert kfs.merged == [10, 200]


def test_merge_preserves_per_part():
    per_part = {JointName.WristLeft: [10, 40], JointName.Head: [12]}
    kfs = merge_keyframes(per_part, EnergyParams(), 30.0)
    assert kfs.per_part == per_part


def test_merge_enforces_min_separation():
    # peaks from different parts 7 frames apart: beyond the merge window but
    # inside min_separation (7.5 frames), so the clusters must collapse
    params = EnergyParams(merge_window=0.2, min_separation=0.25)
    kfs = merge_keyframes(
        {JointName.WristLeft: [100], JointName.WristRight: [107]}, params, 30.0
    )
    for a, b in zip(kfs.merged, kfs.merged[1:]):
        assert b - a >= params.min_separation * 30.0
    assert kfs.merged == [104]


def test_merge_empty():
    kfs = merge_keyframes({JointName.WristLeft: []}, EnergyParams(), 30.0)
    assert kfs.merged == []


# ---------------------------------------------------------------------------
# whole-detector properties
# ---------------------------------------------------------------------------

def test_time_shift_equivariance():
    base_poses = [["place_low", 0.6], ["forward_middle", 0.6], ["left_high", 0.6]]
    seq = synth_motion({"pattern": "reach_sequence", "part": "right_arm", "poses": base_poses}, rate=30.0)
    k = 9  # shift by prepending 0.3 s of the initial dwell
    shifted_poses = [["place_low", 0.6 + k / 30.0]] + base_poses[1:]
    shifted = synth_motion(
        {"pattern": "reach_sequence", "part": "right_arm", "poses": shifted_poses}, rate=30.0
    )
    params = EnergyParams()
    peaks = detect_peaks(energy(seq, JointName.WristRight, params), params, 30.0)
    speaks = detect_peaks(energy(shifted, JointName.WristRight, params), params, 30.0)
    reach = math.ceil(3 * params.sigma * 30.0) + 2
    interior = [p for p in peaks if reach < p < len(seq) - reach]
    assert interior, "test needs interior peaks"
    for p in interior:
        assert p + k in speaks


def test_scale_invariance_of_peak_locations():
    seq = synth_motion(
        {"pattern": "reach_sequence", "part": "right_arm",
         "poses": [["place_low", 0.5], ["right_high", 0.5], ["forward_middle", 0.5]]},
        rate=30.0,
    )
    scaled = SkeletonSequence(seq.times, 3.7 * seq.positions, sample_rate=seq.sample_rate)
    params = EnergyParams()
    p1 = detect_peaks(energy(seq, JointName.WristRight, params), params, 30.0)
    p2 = detect_peaks(energy(scaled, JointName.WristRight, params), params, 30.0)
    assert p1 == p2


def test_extract_keyframes_static_is_empty():
    seq = synth_motion({"pattern": "reach_sequence", "poses": [["place_low", 2.0]]}, rate=30.0)
    assert extract_keyframes(seq).merged == []


@pytest.mark.parametrize("sigma", [0.1, 10000.0])
def test_extract_keyframes_builds_one_kernel_per_clip(monkeypatch, sigma):
    # the clip's 15 coordinate signals share one kernel, at the default width
    # and at one far wider than the clip, and each part's peaks are those of
    # its energy on its own
    seq = synth_motion({"pattern": "reach_sequence", "part": "right_arm",
                        "poses": [["place_low", 0.6], ["forward_middle", 0.6], ["right_high", 0.6]]}, rate=30.0)
    params = EnergyParams(sigma=sigma)
    alone = {part: detect_peaks(energy(seq, part, params), params, 30.0) for part in DEFAULT_TRACKED_PARTS}
    built = []
    kernel = keyframe.gaussian_kernel
    monkeypatch.setattr(keyframe, "gaussian_kernel", lambda *a: built.append(a) or kernel(*a))
    assert extract_keyframes(seq, params).per_part == alone
    assert built == [(sigma, 30.0, len(seq))]


# ---------------------------------------------------------------------------
# brute-force references: the quadratic loops the detector replaced
# ---------------------------------------------------------------------------

def _ref_local_maxima(vals):
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


def _ref_prominence(vals, peak):
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


def _ref_candidates(vals):
    """Local maxima of the signal with their prominences."""
    return [(p, _ref_prominence(vals, p)) for p in _ref_local_maxima(vals)]


def _ref_separate(vals, candidates, prominence, min_sep_frames):
    """The greedy all-pairs separation filter over the prominent candidates."""
    order = sorted((p for p, prom in candidates if prom >= prominence), key=lambda p: (-vals[p], p))
    kept = []
    for p in order:
        if all(abs(p - q) >= min_sep_frames for q in kept):
            kept.append(p)
    return sorted(kept)


def _ref_merge(per_part, params, rate):
    """Single linkage, then a scan that restarts after every merge."""
    indices = sorted({i for idxs in per_part.values() for i in idxs})
    gap = params.merge_window * rate
    min_sep_frames = params.min_separation * rate
    clusters = []
    for i in indices:
        if clusters and i - clusters[-1][-1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    def mean_of(c):
        return int(math.floor(sum(c) / len(c) + 0.5))

    while True:
        means = [mean_of(c) for c in clusters]
        violation = next(
            (k for k in range(len(means) - 1) if means[k + 1] - means[k] < min_sep_frames),
            None,
        )
        if violation is None:
            return means
        clusters[violation] = clusters[violation] + clusters[violation + 1]
        del clusters[violation + 1]


def _reference_signals(seed, count):
    """Seeded signals in [-1, 1] that stress the corner cases: quantized
    values (flat tops at the start, the end and inside), repeated shapes
    (equal-height ties) and cumulative-sum ramps."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(3, 120))
        kind = k % 4
        if kind == 0:
            levels = int(rng.integers(2, 7))
            x = rng.integers(0, levels, size=n) / (levels - 1) * 2.0 - 1.0
            x = np.repeat(x, rng.integers(1, 4, size=n))  # widen some runs
        elif kind == 1:
            shape = np.round(rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 8))), 1)
            x = np.tile(shape, int(rng.integers(1, 12)))
        elif kind == 2:
            x = np.cumsum(rng.normal(size=n))
            x = np.round(x, int(rng.integers(0, 3)))
        else:
            x = _smooth(rng.normal(size=n), sigma=float(rng.uniform(0.02, 0.2)), rate=30.0)
        lo, hi = float(x.min()), float(x.max())
        out.append((x - lo) / (hi - lo) * 2.0 - 1.0 if hi > lo else x)
    return out


def _ripple_ramp(n):
    i = np.arange(n)
    return i / n + 3.0 / n * np.sin(2 * i)


_REF_PROMINENCES = (0.0, 0.1, 1.0)
_REF_SEPARATIONS = (0.0, 0.25, 1.0)


def _assert_peaks_match(values, rate=30.0):
    # the signal and its negation: the maxima of both are the extrema of one
    for sign, vals in (("+", values), ("-", -values)):
        candidates = _ref_candidates(vals)
        for prominence in _REF_PROMINENCES:
            for min_sep in _REF_SEPARATIONS:
                params = EnergyParams(prominence=prominence, min_separation=min_sep)
                got = detect_peaks(vals, params, rate)
                assert got == _ref_separate(vals, candidates, prominence, min_sep * rate), (sign, params)
                assert all(type(p) is int for p in got)


def test_peaks_match_reference_on_seeded_signals():
    for values in _reference_signals(seed=7, count=1000):
        _assert_peaks_match(values)


def test_peaks_match_reference_on_ripple_ramp():
    _assert_peaks_match(_ripple_ramp(2000))


def test_merge_matches_reference_on_seeded_peaks():
    rng = np.random.default_rng(11)
    parts = list(DEFAULT_TRACKED_PARTS)
    for _ in range(1000):
        span = int(rng.integers(1, 400))
        per_part = {
            part: sorted(set(rng.integers(0, span, size=int(rng.integers(0, 25))).tolist()))
            for part in parts[:int(rng.integers(1, len(parts) + 1))]
        }
        for merge_window in (0.0, 0.1, 0.2, 0.6):
            for min_sep in _REF_SEPARATIONS:
                params = EnergyParams(merge_window=merge_window, min_separation=min_sep)
                assert merge_keyframes(per_part, params, 30.0).merged == _ref_merge(per_part, params, 30.0)


def test_merge_matches_reference_on_detected_peaks():
    signals = _reference_signals(seed=13, count=60)
    for k in range(0, len(signals) - 4, 5):
        n = min(s.size for s in signals[k:k + 5])
        for merge_window in (0.1, 0.2, 0.6):
            for min_sep in _REF_SEPARATIONS:
                params = EnergyParams(prominence=0.0, merge_window=merge_window, min_separation=min_sep)
                per_part = {part: detect_peaks(s[:n], params, 30.0)
                            for part, s in zip(DEFAULT_TRACKED_PARTS, signals[k:k + 5])}
                assert merge_keyframes(per_part, params, 30.0).merged == _ref_merge(per_part, params, 30.0)
