import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from labanmotion import trajectory
from labanmotion.errors import BadInput, ParseError, ShapeError, TimeOrderError
from labanmotion.laban import COLUMN_NAMES, SYMBOL_CODES, VALID_LIMB_SYMBOLS, Direction, LabanSymbol, Level
from labanmotion.robot import KeyPoses
from labanmotion.skeleton import MAX_SAMPLES, uniform_grid
from labanmotion.trajectory import (
    DEFAULT_TAU_DEG,
    DictEntry,
    DictPath,
    MotionDictionary,
    PATH_SAMPLES,
    _block_rows,
    _rows_at,
    _segment_index,
    dict_key,
    dict_lookup,
    dict_update,
    parse_dictionary,
    path_distance,
    resample_path,
    serialize_dictionary,
    synthesize,
    trajectory_to_csv,
)

from conftest import serialize_dictionary_reference, state_key

D = Direction
L = Level
S = LabanSymbol

JOINTS = ("elbow", "shoulder_pitch", "shoulder_yaw")


def _csv(traj):
    """The CSV that trajectory_to_csv writes, as text."""
    out = io.BytesIO()
    trajectory_to_csv(traj, out)
    return out.getvalue().decode()


def _pose(t, *angles):
    """One pose over JOINTS: its time and its angles."""
    return t, angles


def _poses(poses) -> KeyPoses:
    """Key poses over JOINTS from :func:`_pose` pairs."""
    return KeyPoses([t for t, _ in poses], JOINTS, np.reshape([a for _, a in poses], (len(poses), len(JOINTS))))


def _interpolate(keyposes, mode, rate):
    """Plain interpolation: :func:`synthesize` without a dictionary."""
    return synthesize(keyposes, None, None, mode, rate)


def _at(keyposes, mode, t) -> dict[str, float]:
    """Interpolated angles per joint at one time."""
    row = _rows_at(keyposes.times, keyposes.samples, mode, np.array([t], dtype=float))[2][0]
    return dict(zip(keyposes.joints, row.tolist()))


def _state(sym):
    return {"RightArm": sym}


# synthesize's codes for one state per key pose, over the one column of _state
COLUMNS = ("RightArm",)


def _codes(states):
    return np.array([[SYMBOL_CODES[state["RightArm"]]] for state in states], dtype=np.intp)


def fd_velocity(keyposes, mode, t, side, eps=5e-5):
    """Richardson-extrapolated one-sided finite-difference velocity at t.

    side=+1 probes into the following segment, side=-1 into the preceding
    one. Extrapolation cancels the first-order acceleration term, leaving
    truncation ~ eps^2 * jerk, small enough to resolve a zero velocity.
    """
    base = _at(keyposes, mode, t)
    out = {}
    for j in base:
        f0 = base[j]
        f1 = _at(keyposes, mode, t + side * eps / 2.0)[j]
        f2 = _at(keyposes, mode, t + side * eps)[j]
        d_half = (f1 - f0) / (eps / 2.0)
        d_full = (f2 - f0) / eps
        out[j] = side * (2.0 * d_half - d_full)
    return out


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_linear_midpoint_is_mean():
    traj = _interpolate(_poses([_pose(0.0, 0.0, 10.0, -20.0), _pose(1.0, 30.0, 20.0, 40.0)]), "linear", 2.0)
    assert traj.times[1] == pytest.approx(0.5)
    assert traj.samples[1] == pytest.approx([15.0, 15.0, 10.0], abs=1e-12)


def test_cubic_endpoint_velocities_vanish():
    keyposes = _poses([_pose(0.0, 0.0, 10.0, -20.0), _pose(1.0, 30.0, 20.0, 40.0)])
    v0 = fd_velocity(keyposes, "cubic", 0.0, +1)
    v1 = fd_velocity(keyposes, "cubic", 1.0, -1)
    for j in JOINTS:
        assert abs(v0[j]) < 1e-6
        assert abs(v1[j]) < 1e-6


def test_samples_at_key_times_equal_key_poses():
    keyposes = _poses([_pose(0.0, 1.0, 2.0, 3.0), _pose(0.5, -4.0, 5.0, -6.0), _pose(1.5, 7.0, -8.0, 9.0)])
    for mode in ("linear", "cubic"):
        traj = _interpolate(keyposes, mode, 10.0)
        by_t = dict(zip(traj.times.tolist(), traj.samples.tolist()))
        for t, angles in zip(keyposes.times.tolist(), keyposes.samples.tolist()):
            assert by_t[t] == pytest.approx(angles, abs=1e-9)


def test_linear_monotone_between_endpoints():
    keyposes = _poses([_pose(0.0, 0.0, 50.0, -10.0), _pose(2.0, 30.0, -50.0, -10.0)])
    traj = _interpolate(keyposes, "linear", 25.0)
    for j in JOINTS:
        vals = traj.samples[:, traj.joints.index(j)]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)


def test_interpolate_errors():
    # fewer than two key poses are their own trajectory, but the rate and mode are still checked
    for poses in ([_pose(0.5, 1.0, 2.0, 3.0)], []):
        keyposes = _poses(poses)
        for mode in ("linear", "cubic"):
            assert _interpolate(keyposes, mode, 10.0) is keyposes
        with pytest.raises(BadInput, match="trajectory rate"):
            _interpolate(keyposes, "linear", 0.0)
        with pytest.raises(ValueError, match="^unknown interpolation mode: 'quintic'$"):
            _interpolate(keyposes, "quintic", 10.0)
    with pytest.raises(TimeOrderError):
        _interpolate(_poses([_pose(0.0, 1, 2, 3), _pose(0.0, 4, 5, 6)]), "linear", 10.0)
    # float spacing at 1e10 s is 1.9e-6 s, so a 1 MHz grid repeats time stamps
    with pytest.raises(TimeOrderError):
        _interpolate(KeyPoses([1e10, 1e10 + 1.0], ("x",), [[0.0], [1.0]]), "linear", 1e6)
    with pytest.raises(ValueError):
        _interpolate(_poses([_pose(0.0, 1, 2, 3), _pose(1.0, 4, 5, 6)]), "quintic", 10.0)


def test_key_poses_refuse_a_nan_time():
    """A NaN time is no increase: the step into it is refused, not let through
    as a comparison that is False."""
    for times, index in (([0.0, math.nan, 2.0], 1), ([math.nan, 1.0, 2.0], 1), ([0.0, 1.0, math.nan], 2)):
        with pytest.raises(TimeOrderError, match=f"^non-increasing timestamp at index {index} "):
            KeyPoses(times, ("a",), [[0.0], [1.0], [2.0]])


def test_key_poses_have_one_joint_set():
    for joints in (("shoulder_yaw", "elbow"), ("elbow", "elbow")):  # not sorted, repeated
        with pytest.raises(ShapeError, match="joint names must be sorted and distinct"):
            KeyPoses(np.array([0.0, 1.0]), joints, np.zeros((2, 2)))
    # angles not one per pose and joint: the shape is named, not the joints
    with pytest.raises(ShapeError, match=r"samples must have shape \(2, 3\).*got \(2, 2\)"):
        KeyPoses(np.array([0.0, 1.0]), JOINTS, np.zeros((2, 2)))
    with pytest.raises(ShapeError, match=r"samples must have shape \(2, 1\) for 2 times and 1 joints, got \(1, 1\)"):
        KeyPoses([0.0, 1.0], ("a",), [[1.0]])
    # joints given as a list match a loaded dictionary's tuple
    listed = KeyPoses(np.array([0.0, 1.0]), list(JOINTS), np.array([[0.0, 0.0, 0.0], [30.0, 20.0, 40.0]]))
    assert listed.joints == JOINTS
    states = [_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle))]
    key = state_key(*states)
    loaded = parse_dictionary(serialize_dictionary(dict_update(MotionDictionary(), key, listed)))
    assert path_distance(resample_path(listed), dict_lookup(loaded, key)) == 0.0
    # the recorded path is the straight line itself
    assert np.allclose(synthesize(listed, _codes(states), loaded, "linear", 10.0, COLUMNS).samples,
                       synthesize(listed, _codes(states), None, "linear", 10.0, COLUMNS).samples, atol=1e-9)


def test_uniform_grid():
    traj = _interpolate(_poses([_pose(0.25, 0, 0, 0), _pose(1.25, 1, 1, 1)]), "linear", 30.0)
    ts = traj.times
    assert np.max(np.abs(np.diff(ts) - 1.0 / 30.0)) < 1e-9
    assert ts[0] == 0.25


# ---------------------------------------------------------------------------
# path distance and dictionary
# ---------------------------------------------------------------------------

def _path(offset=0.0):
    poses = [_pose(0.0, 0.0 + offset, 10.0 + offset, -20.0 + offset),
             _pose(0.5, 15.0 + offset, 30.0 + offset, 0.0 + offset),
             _pose(1.0, 30.0 + offset, 20.0 + offset, 40.0 + offset)]
    return _poses(poses)


def test_path_distance_identity_and_offset():
    a = resample_path(_path())
    b = resample_path(_path())
    assert path_distance(a, b) == 0.0
    c = resample_path(_path(offset=5.0))
    assert path_distance(a, c) == pytest.approx(5.0, abs=1e-9)
    assert path_distance(a, c) == path_distance(c, a)


def test_path_distance_shape_mismatch():
    a = resample_path(_path())
    b = KeyPoses(np.linspace(0, 1, PATH_SAMPLES), ("x", "y"), np.zeros((PATH_SAMPLES, 2)))
    with pytest.raises(ShapeError):
        path_distance(a, b)


def test_resample_path_fixed_length():
    path = resample_path(_path())
    assert path.samples.shape == (PATH_SAMPLES, len(JOINTS))
    assert path.joints == tuple(sorted(JOINTS))
    # endpoints preserved exactly by normalized-time interpolation
    assert path.samples[0][path.joints.index("elbow")] == pytest.approx(0.0, abs=1e-12)
    assert path.samples[-1][path.joints.index("elbow")] == pytest.approx(30.0, abs=1e-12)


def test_dict_first_observation():
    mdict = MotionDictionary()
    key = state_key(_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)))
    dict_update(mdict, key, _path())
    entry = mdict.entries[key]
    assert len(entry.paths) == 1
    assert entry.probabilities() == [1.0]


def test_dict_identical_observation_bumps_count():
    mdict = MotionDictionary()
    key = state_key(_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)))
    dict_update(mdict, key, _path())
    dict_update(mdict, key, _path())
    entry = mdict.entries[key]
    assert len(entry.paths) == 1
    assert entry.paths[0].count == 2
    assert entry.probabilities() == [1.0]


def test_dict_dissimilar_observation_appends():
    mdict = MotionDictionary()
    key = state_key(_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)))
    dict_update(mdict, key, _path())
    dict_update(mdict, key, _path(offset=25.0))  # RMS 25 > tau 10
    entry = mdict.entries[key]
    assert len(entry.paths) == 2
    assert entry.probabilities() == [0.5, 0.5]


def test_dict_probabilities_sum_to_one(rng):
    mdict = MotionDictionary()
    key = state_key(_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)))
    for _ in range(30):
        dict_update(mdict, key, _path(offset=float(rng.uniform(-40, 40))))
    entry = mdict.entries[key]
    assert sum(entry.probabilities()) == pytest.approx(1.0, abs=1e-12)
    # stored paths stay pairwise >= tau apart
    for i in range(len(entry.paths)):
        for j in range(i + 1, len(entry.paths)):
            assert path_distance(entry.paths[i].motion, entry.paths[j].motion) >= mdict.tau


def test_dict_lookup_argmax_and_ties():
    mdict = MotionDictionary()
    key = state_key(_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)))
    assert dict_lookup(mdict, key) is None
    dict_update(mdict, key, _path())            # path 0
    dict_update(mdict, key, _path(offset=25.0))  # path 1
    dict_update(mdict, key, _path(offset=25.0))  # bump path 1 -> counts [1, 2]
    assert dict_lookup(mdict, key) is mdict.entries[key].paths[1].motion
    dict_update(mdict, key, _path())             # counts [2, 2]: tie -> index 0
    assert dict_lookup(mdict, key) is mdict.entries[key].paths[0].motion


def test_dict_update_deterministic_serialization():
    def build():
        mdict = MotionDictionary()
        key1 = state_key(_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)))
        key2 = state_key(_state(S(D.Forward, L.Middle)), _state(S(D.Left, L.High)))
        dict_update(mdict, key1, _path())
        dict_update(mdict, key2, _path(offset=3.0))
        dict_update(mdict, key1, _path(offset=30.0))
        return serialize_dictionary(mdict)

    assert build() == build()


def test_dict_update_refuses_a_non_finite_path_and_keeps_the_dictionary():
    """The dictionary file cannot hold a non-finite angle, so such a path is
    refused where it enters, naming its key, and the dictionary is unchanged."""
    mdict = MotionDictionary()
    key = state_key(_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)))
    dict_update(mdict, key, _path())
    before = serialize_dictionary(mdict)
    for bad in (math.inf, -math.inf, math.nan):
        for k in (key, "->"):  # an entry that exists and a new one
            with pytest.raises(BadInput, match=f"^dictionary key {re.escape(k)}: non-finite angle"):
                dict_update(mdict, k, KeyPoses([0.0, 1.0], ("a",), [[0.0], [bad]]))
            assert serialize_dictionary(mdict) == before
    assert serialize_dictionary(parse_dictionary(before)) == before


def test_dict_serialization_roundtrip():
    mdict = MotionDictionary(tau=7.5)
    key = state_key(
        {"RightArm": S(D.Place, L.Low), "Head": S(D.Place, L.High)},
        {"RightArm": S(D.Forward, L.Middle), "Head": S(D.Place, L.High)},
    )
    dict_update(mdict, key, _path())
    text = serialize_dictionary(mdict)
    back = parse_dictionary(text)
    assert back.tau == 7.5
    assert set(back.entries) == set(mdict.entries)
    assert serialize_dictionary(back) == text


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_dict_serialization_roundtrip_randomized(rng):
    symbols = [S(D.Place, L.Low), S(D.Forward, L.Middle), S(D.Left, L.High), S(D.RightBackward, L.Low)]
    for trial in range(20):
        mdict = MotionDictionary(tau=float(rng.uniform(0.5, 40.0)))
        for _ in range(int(rng.integers(0, 12))):
            a, b = (symbols[int(i)] for i in rng.integers(0, len(symbols), size=2))
            n = int(rng.integers(2, 40))
            times = np.cumsum(rng.uniform(0.01, 1.0, size=n))
            scale = 10.0 ** float(rng.uniform(-8, 3))
            observed = _poses([_pose(float(t), *map(float, rng.normal(0, scale, size=3))) for t in times])
            dict_update(mdict, state_key(_state(a), {"Head": b, "RightArm": a}), observed)
        text = serialize_dictionary(mdict)
        json.loads(text, parse_constant=_reject_constant)
        assert serialize_dictionary(parse_dictionary(text)) == text


def test_dict_serialization_writes_each_angle_as_its_float_repr(rng):
    mdict = MotionDictionary()
    for k in range(6):
        times = np.cumsum(rng.uniform(0.01, 1.0, size=int(rng.integers(2, 40))))
        scale = 10.0 ** float(rng.uniform(-300, 300))
        angles = rng.normal(0, scale, size=(len(times), len(JOINTS)))
        angles[0, 0] = -0.0
        observed = KeyPoses(times, JOINTS, angles)
        dict_update(mdict, state_key(_state(S(D.Place, L.Low)), {"Head": VALID_LIMB_SYMBOLS[k]}), observed)
    text = serialize_dictionary(mdict)
    for entry in mdict.entries.values():
        for p in entry.paths:
            rows = ", ".join("[" + ", ".join(repr(float(x)) for x in row) + "]" for row in p.motion.samples)
            assert f'"samples": [{rows}]' in text
    assert "-0.0" in text


_KEY_COLUMNS = ("Head", "LeftArm", "LeftForearm", "RightArm", "RightUpperArm")


# joint names that JSON escapes: quotes, backslashes, control and non-ASCII characters
_ESCAPED_JOINTS = ('a"b', "coude_\u00e9", "\u80a9", "q\\r", "x\ty", "z")
# angles at the edges of float repr: signed zeros, the smallest subnormal, huge and 17-digit values
_EDGE_ANGLES = (-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1 + 0.2, 1.2345678901234567, -98.76543210987654)


def test_dictionary_writer_gives_the_bytes_of_the_per_row_reference(rng):
    """One json.dumps per path writes the bytes that joining each row's
    float reprs by hand wrote: keys from random code rows (with -1), counts
    up to 10**6, escaped joint names and edge-case angles."""
    columns = sorted(COLUMN_NAMES)
    texts = []
    for _ in range(30):
        mdict = MotionDictionary(tau=float(rng.uniform(0.5, 40.0)))
        for _ in range(int(rng.integers(0, 6))):
            cols = rng.choice(columns, size=int(rng.integers(0, len(columns) + 1)), replace=False).tolist()
            a, b = (rng.integers(-1, len(VALID_LIMB_SYMBOLS), size=len(cols)).tolist() for _ in range(2))
            paths = []
            for _ in range(int(rng.integers(1, 4))):
                joints = sorted(rng.choice(_ESCAPED_JOINTS, size=int(rng.integers(1, 5)), replace=False).tolist())
                samples = rng.normal(0.0, 10.0 ** rng.uniform(-300, 300), size=(PATH_SAMPLES, len(joints)))
                samples.flat[rng.integers(0, samples.size, size=4)] = rng.choice(_EDGE_ANGLES, size=4)
                count = int(rng.choice([1, 10**6, int(rng.integers(1, 10**6, endpoint=True))]))
                paths.append(DictPath(KeyPoses(trajectory._PATH_TIMES, joints, samples), count))
            mdict.entries[dict_key(cols, a, b)] = DictEntry(paths)
        texts.append(serialize_dictionary(mdict))
        assert texts[-1] == serialize_dictionary_reference(mdict)
        assert serialize_dictionary(parse_dictionary(texts[-1])) == texts[-1]
    joined = "".join(texts)
    for needle in ("-0.0,", "5e-324", "1e+300", "0.30000000000000004", '\\"', "\\u00e9", ": 1000000,"):
        assert needle in joined, needle


_KEY_COLUMNS = ("Head", "LeftArm", "LeftForearm", "RightArm", "RightUpperArm")


def _loaded_keys(text: str) -> list[str]:
    """The keys that a one-path dictionary file whose one key is ``text``
    loads under."""
    obj = json.loads(serialize_dictionary(dict_update(MotionDictionary(), "->", _path())))
    obj["entries"] = {text: obj["entries"]["->"]}
    return list(parse_dictionary(json.dumps(obj)).entries)


def test_dict_key_parses_its_text_and_nothing_from_states_cannot_give(rng):
    """A dictionary file loads every key that two states give under its own
    text, and refuses any other key, so a loaded dictionary writes its own
    bytes again."""
    for _ in range(200):
        a, b = ({c: VALID_LIMB_SYMBOLS[int(rng.integers(len(VALID_LIMB_SYMBOLS)))]
                 for c in rng.choice(_KEY_COLUMNS, size=int(rng.integers(0, 4)), replace=False)}
                for _ in range(2))
        key = state_key(a, b)
        assert _loaded_keys(key) == [key]
    for text in ("RightArm=Forward.High,LeftArm=Forward.Low->",
                 "->Head=Left.Low,Head=Left.Low",
                 "Head=Place.Middle->Head=Place.High",
                 "Head=Up.High->",
                 "RightArms=Forward.High->RightArms=Forward.Low",
                 "->Head=Left.Low,Torso=Left.Low",
                 "RightArm=Forward.Middle",
                 "",
                 "->->",
                 "Head=Left.Low->->",
                 "Head=Left.Low,->"):
        with pytest.raises(ParseError, match=r"not a \(from-state\)->\(to-state\) key"):
            _loaded_keys(text)


def test_dict_key_of_codes_is_the_symbol_map_rule(rng):
    """dict_key over code rows, in any column order and with -1 for no
    symbol, gives the key of the {column: symbol} maps of the same states."""
    for _ in range(200):
        columns = [str(c) for c in rng.permutation(_KEY_COLUMNS)[:int(rng.integers(0, 6))]]
        a, b = (rng.integers(-1, len(VALID_LIMB_SYMBOLS), size=len(columns)).tolist() for _ in range(2))
        maps = [{col: VALID_LIMB_SYMBOLS[code] for col, code in zip(columns, row) if code >= 0} for row in (a, b)]
        assert dict_key(columns, a, b) == state_key(*maps)
        assert dict_key(columns, np.array(a, dtype=np.intp), np.array(b, dtype=np.intp)) == state_key(*maps)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def test_synthesize_empty_dict_equals_interpolate():
    keyposes = _poses([_pose(0.0, 0, 10, -20), _pose(1.0, 30, 20, 40), _pose(2.0, -10, 0, 0)])
    states = [_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)), _state(S(D.Left, L.Middle))]
    for mode in ("linear", "cubic"):
        a = _interpolate(keyposes, mode, 25.0)
        b = synthesize(keyposes, _codes(states), MotionDictionary(), mode, 25.0, COLUMNS)
        assert len(a.samples) == len(b.samples)
        assert a.times.tolist() == b.times.tolist()
        assert a.samples.tolist() == b.samples.tolist()


def test_synthesize_recovers_recorded_path():
    # record an arced transition, rebuild through the dictionary, and check
    # the synthesized trajectory stays within tau of the recording
    t0, t1 = 0.0, 1.0
    n = 31
    recorded = []
    for i in range(n):
        u = i / (n - 1)
        recorded.append(
            _pose(t0 + u * (t1 - t0),
                  30.0 * u + 20.0 * math.sin(math.pi * u),
                  10.0 - 10.0 * u,
                  40.0 * u * u)
        )
    recorded = _poses(recorded)
    ends = KeyPoses(recorded.times[[0, -1]], recorded.joints, recorded.samples[[0, -1]])
    key = state_key(_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)))
    mdict = MotionDictionary()
    dict_update(mdict, key, recorded)
    states = [_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle))]
    traj = synthesize(ends, _codes(states), mdict, "linear", 30.0, COLUMNS)
    rebuilt = resample_path(traj)
    assert path_distance(rebuilt, resample_path(recorded)) < mdict.tau
    # and it would NOT be linear: the arc survives
    linear = _interpolate(ends, "linear", 30.0)
    assert path_distance(rebuilt, resample_path(linear)) > 1.0


def test_synthesize_mixed_coverage_continuous():
    keyposes = _poses([_pose(0.0, 0, 0, 0), _pose(1.0, 30, 20, 40), _pose(2.0, -10, 0, 0)])
    states = [_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)), _state(S(D.Left, L.Middle))]
    observed = _poses([_pose(0.0, 0, 0, 0), _pose(0.5, 25.0, 5.0, 10.0), _pose(1.0, 30, 20, 40)])
    mdict = MotionDictionary()
    dict_update(mdict, state_key(states[0], states[1]), observed)
    traj = synthesize(keyposes, _codes(states), mdict, "linear", 50.0, COLUMNS)
    assert traj.joints == tuple(sorted(JOINTS))
    vals = traj.samples
    ts = traj.times
    # passes through all key poses
    for t, angles in zip(keyposes.times, keyposes.samples):
        i = int(np.argmin(np.abs(ts - t)))
        assert vals[i] == pytest.approx(angles, abs=1e-9)
    # no jump at the shared key pose: successive steps stay bounded
    steps = np.max(np.abs(np.diff(vals, axis=0)), axis=1)
    assert np.max(steps) < 5.0  # 50 Hz sampling of bounded-slope segments


def test_synthesize_endpoint_exactness_randomized(rng):
    for _ in range(25):
        k = int(rng.integers(2, 6))
        times = np.cumsum(rng.integers(5, 20, size=k)) / 10.0
        keyposes = _poses([
            _pose(float(t), *[float(a) for a in rng.uniform(-90, 90, size=3)]) for t in times
        ])
        states = [_state(S(D.Forward, L.Middle)) for _ in range(len(keyposes))]
        mode = "cubic" if rng.random() < 0.5 else "linear"
        traj = synthesize(keyposes, _codes(states), None, mode, 10.0, COLUMNS)
        by_t = {round(t, 9): row for t, row in zip(traj.times.tolist(), traj.samples.tolist())}
        for t, angles in zip(keyposes.times.tolist(), keyposes.samples.tolist()):
            assert by_t[round(t, 9)] == pytest.approx(angles, abs=1e-9)


def test_csv_export_shape():
    traj = _interpolate(_poses([_pose(0.0, 0, 0, 0), _pose(1.0, 10, 20, 30)]), "linear", 10.0)
    text = _csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t," + ",".join(sorted(JOINTS))
    assert len(lines) == 1 + len(traj.samples)
    assert lines[1].startswith("0.000000,")


class _Discard:
    """A binary file that keeps only the number of bytes written to it."""

    size = 0

    def write(self, data):
        self.size += len(data)
        return len(data)


def test_csv_write_memory_does_not_grow_with_rows(rng):
    # each block is written as it is formatted: the traced peak is one
    # block's worth, whatever the row count and well under the output size
    joints = tuple(f"joint{i}" for i in range(7))
    peaks, sizes = [], []
    for n in (50_000, 200_000):  # times stay under 1000 s, so every block has one integer group
        traj = KeyPoses(np.arange(n) / 1000.0, joints, rng.uniform(-180, 180, size=(n, len(joints))))
        sink = _Discard()
        tracemalloc.start()
        try:
            trajectory_to_csv(traj, sink)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(sink.size)
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert peaks[0] < sizes[0] / 2, (peaks, sizes)


def test_csv_write_memory_is_level_in_the_joint_count(rng):
    # a block holds a fixed number of values, not rows: the traced peak is
    # about the same at 7 and 28 joints, and blocks of any width write the
    # bytes of %
    peaks = []
    for n_joints in (7, 28):
        joints = tuple(f"joint{i:02d}" for i in range(n_joints))
        n = 4 * _block_rows(8)  # several blocks at either width
        traj = KeyPoses(np.arange(n) / 1000.0, joints, rng.uniform(-180, 180, size=(n, n_joints)))
        tracemalloc.start()
        try:
            trajectory_to_csv(traj, _Discard())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows = 2 * _block_rows(n_joints + 1) + 1
        head = KeyPoses(traj.times[:rows], joints, traj.samples[:rows])
        out = io.BytesIO()
        trajectory_to_csv(head, out)
        row = ",".join(["%.6f"] * (n_joints + 1)) + "\n"
        assert out.getvalue().decode() == "t," + ",".join(joints) + "\n" + "".join(
            row % (t, *r) for t, r in zip(head.times.tolist(), head.samples.tolist()))
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_synthesize_memory_is_the_result_and_a_few_sample_arrays(rng):
    # the (m, J) result is filled block by block: beside it the traced peak
    # holds the (m,) grid, segment index and normalized times, the result's
    # time-order check and one block's temporaries, at a high rate and with
    # or without a dictionary; an (m, J) temporary would exceed the bound
    joints = tuple(f"joint{i}" for i in range(7))
    keyposes = KeyPoses(np.array([0.0, 1.0, 2.5]), joints, rng.uniform(-90, 90, size=(3, len(joints))))
    states = [_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle)), _state(S(D.Left, L.High))]
    mdict = MotionDictionary()
    for a, b in zip(states, states[1:]):
        dict_update(mdict, state_key(a, b), KeyPoses(np.arange(4.0), joints, rng.uniform(-90, 90, size=(4, 7))))
    for d in (None, mdict):
        for mode in ("linear", "cubic"):
            tracemalloc.start()
            try:
                traj = synthesize(keyposes, _codes(states), d, mode, 100_000.0, COLUMNS)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            m = len(traj.times)
            assert m == 250_001
            assert peak <= traj.samples.nbytes + 5 * m * 8, (d is not None, mode, peak, traj.samples.nbytes)


def test_synthesize_rejects_mismatched_dictionary_joints():
    keyposes = _poses([_pose(0.0, 0, 0, 0), _pose(1.0, 30, 20, 40)])
    states = [_state(S(D.Place, L.Low)), _state(S(D.Forward, L.Middle))]
    mdict = MotionDictionary()
    key = state_key(states[0], states[1])
    other = KeyPoses([0.0, 1.0], ("x",), [[0.0], [1.0]])
    dict_update(mdict, key, other)
    with pytest.raises(ShapeError):
        synthesize(keyposes, _codes(states), mdict, "linear", 10.0, COLUMNS)


def test_synthesize_states_misaligned():
    keyposes = _poses([_pose(0.0, 0, 0, 0), _pose(1.0, 30, 20, 40)])
    with pytest.raises(ShapeError):
        synthesize(keyposes, _codes([_state(S(D.Place, L.Low))]), MotionDictionary(), "linear", 10.0, COLUMNS)
    with pytest.raises(ShapeError):  # codes without their columns
        synthesize(keyposes, _codes([_state(S(D.Place, L.Low))] * 2), MotionDictionary(), "linear", 10.0)


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_rate_must_be_finite_and_positive(rate):
    keyposes = _poses([_pose(0.0, 0, 0, 0), _pose(1.0, 10, 20, 30)])
    with pytest.raises(BadInput):
        synthesize(keyposes, None, None, "linear", rate)
    with pytest.raises(BadInput):
        _interpolate(keyposes, "linear", rate)
    with pytest.raises(BadInput):  # checked before the pose count
        synthesize(_poses([_pose(0.0, 0, 0, 0)]), None, None, "linear", rate)


def test_sample_count_is_bounded():
    keyposes = _poses([_pose(0.0, 0, 0, 0), _pose(21.0, 10, 20, 30)])
    # each rate asks for more than MAX_SAMPLES samples; the check runs
    # before the grid is allocated
    for rate in (MAX_SAMPLES / 21.0, 1e9, 1e300):
        with pytest.raises(BadInput, match="samples"):
            synthesize(keyposes, None, None, "linear", rate)


def test_from_poses_keeps_the_poses():
    # a score with fewer than two key poses writes the poses themselves
    one = _poses([_pose(0.5, 1.0, 2.0, 3.0)])
    assert one.joints == JOINTS
    assert one.times.tolist() == [0.5]
    assert one.samples.tolist() == [[1.0, 2.0, 3.0]]
    assert _csv(one) == "t,elbow,shoulder_pitch,shoulder_yaw\n0.500000,1.000000,2.000000,3.000000\n"
    none = KeyPoses([], (), np.empty((0, 0)))
    assert none.samples.shape == (0, 0)
    assert _csv(none) == "t,\n"


def _synthesize_per_segment(keyposes, states, mdict, mode, rate):
    """Reference: one grid mask per key-pose segment, filled from the
    dictionary path or by interpolation."""
    joints, times, angles = keyposes.joints, keyposes.times, keyposes.samples
    n = int(math.floor((times[-1] - times[0]) * rate + 1e-6 * rate + 1e-9)) + 1
    grid = times[0] + np.arange(n) / rate
    idx = np.clip(np.searchsorted(times, grid, side="right") - 1, 0, len(times) - 2)
    tau = np.clip((grid - times[idx]) / (times[idx + 1] - times[idx]), 0.0, 1.0)
    rows = np.empty((grid.size, len(joints)))
    path_u = np.linspace(0.0, 1.0, PATH_SAMPLES)
    for k in range(len(keyposes) - 1):
        m = idx == k
        tk = tau[m]
        path = dict_lookup(mdict, state_key(states[k], states[k + 1])) if mdict else None
        if path is not None:
            S = path.samples
            base = np.column_stack([np.interp(tk, path_u, S[:, c]) for c in range(len(joints))])
            rows[m] = base + (1.0 - tk)[:, None] * (angles[k] - S[0]) + tk[:, None] * (angles[k + 1] - S[-1])
        else:
            s = tk if mode == "linear" else tk * tk * (3.0 - 2.0 * tk)
            rows[m] = angles[k] + s[:, None] * (angles[k + 1] - angles[k])
    return grid, rows


def test_synthesize_matches_per_segment_reference(rng):
    symbols = [S(D.Place, L.Low), S(D.Forward, L.Middle), S(D.Left, L.High)]
    for trial in range(30):
        k = int(rng.integers(2, 9))
        times = np.cumsum(rng.integers(1, 30, size=k)) / 7.0
        keyposes = _poses([_pose(float(t), *map(float, rng.uniform(-90, 90, size=3))) for t in times])
        states = [_state(symbols[int(i)]) for i in rng.integers(0, len(symbols), size=k)]
        mdict = MotionDictionary()
        for _ in range(3):  # some transitions get a recorded path, others none
            a, b = (int(i) for i in rng.integers(0, len(symbols), size=2))
            observed = _poses([_pose(float(u), *map(float, rng.uniform(-90, 90, size=3))) for u in range(4)])
            dict_update(mdict, state_key(_state(symbols[a]), _state(symbols[b])), observed)
        mode = ("linear", "cubic")[trial % 2]
        rate = float(rng.choice([3.0, 10.0, 29.97]))
        for d in (mdict, None):
            traj = synthesize(keyposes, _codes(states), d, mode, rate, COLUMNS)
            grid, rows = _synthesize_per_segment(keyposes, states, d, mode, rate)
            assert traj.joints == JOINTS
            assert np.array_equal(traj.times, grid)
            assert np.array_equal(traj.samples, rows)


def _timed(values):
    """A trajectory whose samples hold ``values`` in whole rows, the last one
    filled from the start, at increasing times."""
    values = np.asarray(values, dtype=float)
    samples = np.resize(values, (-(-values.size // len(JOINTS)), len(JOINTS)))
    return KeyPoses(np.arange(len(samples)) / 7.0, JOINTS, samples)


def _csv_per_value(times, samples):
    """Reference: one f-string per value."""
    return "t," + ",".join(JOINTS) + "\n" + "".join(
        f"{t:.6f}," + ",".join(f"{v:.6f}" for v in row) + "\n"
        for t, row in zip(times.tolist(), samples.tolist())
    )


def test_csv_matches_per_value_formatting(rng):
    angles = np.concatenate([rng.uniform(-180, 180, size=40), [-0.0, 0.0, -1e-9, 2.5e-7, 0.0000005, 179.9999995]])
    keyposes = [_pose(float(i) / 3.0, *angles[3 * i:3 * i + 3]) for i in range(len(angles) // 3)]
    traj = _poses(keyposes)
    expected = "t," + ",".join(JOINTS) + "\n" + "".join(
        f"{t:.6f}," + ",".join(f"{a:.6f}" for a in angles) + "\n" for t, angles in keyposes
    )
    assert _csv(traj) == expected

    limit = 2.0**52 / 1e6  # the array formatter's bound; beyond it rows go through %
    half_micro = 5e-7
    n_random = 100_000
    random = np.exp(rng.uniform(math.log(1e-9), math.log(limit), n_random)) * rng.choice([-1.0, 1.0], n_random)
    cases = {
        "binary ties": np.concatenate([np.arange(-4096, 4096) / 128, np.arange(-4096, 4096) / 2**20]),
        # 2.5e-6 and the like: |v|*1e6 rounds to a half-integer, the exact product is not one
        "decimal ties": np.arange(-4000, 4000) / 2e6 + 0.5e-6,
        "half micro": [half_micro, np.nextafter(half_micro, 0), np.nextafter(half_micro, 1),
                       -half_micro, -np.nextafter(half_micro, 0), -np.nextafter(half_micro, 1)],
        "negative zero": [-0.0, 0.0, -1e-9, 1e-9, -4.9e-7, 4.9e-7],
        "integer digits": [s * (10.0**k + 0.1234565) for k in range(10) for s in (1.0, -1.0)],
        "below limit": [np.nextafter(limit, 0), -np.nextafter(limit, 0), 2.5e-6, -1e-9],
        "at limit": [limit, -limit, np.nextafter(limit, math.inf), 2.5e-6, -1e-9, 1e300],
        "non-finite": [math.nan, math.inf, -math.inf, 1.25, -0.0, 2.5e-6],
        # micros whose last three or six digits are zeros, at one to four integer groups
        "whole thousandths": [0.001, -0.001, 0.999, 1.0, -1.0, 999.999, 999.0, 1000.0, -1000.001, 1e6, -1e6,
                              123456.789, 1e9, -123456789.0, 123456789.000001, 4e9, -4000000000.001, 0.0],
        # the range check reads the block's largest magnitude: a non-finite
        # value anywhere in it, the first sample or the last value, sends the
        # block through %
        **{f"{v} first": [v, 1.25, -2.5e-6, 7.0, -0.0, 179.5] for v in (math.nan, math.inf, -math.inf)},
        **{f"{v} last": [1.25, -2.5e-6, 7.0, -0.0, 179.5, v] for v in (math.nan, math.inf, -math.inf)},
        **{f"{v} last in a full block": np.append(random[:3 * _block_rows(len(JOINTS) + 1) - 1], v)
           for v in (math.nan, -math.inf)},
        "largest at limit": [limit, 2.5e-6, -1e-9, 1.0, -0.0, 123.456789],
        "log-uniform": random,
    }
    for name, values in cases.items():
        traj = _timed(values)
        assert _csv(traj) == _csv_per_value(traj.times, traj.samples), name

    # row counts around the block (4 columns a row), with a fallback value in one block only
    block = _block_rows(len(JOINTS) + 1)
    for rows in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        traj = _timed(random[:3 * rows])
        if rows > block:
            traj.samples[block, 1] = math.nan
        assert _csv(traj) == _csv_per_value(traj.times, traj.samples), rows


def _csv_rows_digit_loop(block):
    """Reference: the array formatter before the word tables, one int64
    ``//10`` pass per digit, for a finite block with every |v| < 2**52 / 1e6."""
    mag = np.abs(block)
    y = mag * 1e6
    r = np.rint(y)
    tie = np.abs(r - y) == 0.5
    if tie.any():
        r[tie] = [float(("%.6f" % m).replace(".", "")) for m in mag[tie].tolist()]
    q = r.astype(np.int64)
    n_int = len(str(int(q.max()) // 1000000))
    buf = np.empty(block.shape + (n_int + 9,), dtype=np.uint8)
    buf[..., 0] = np.where(np.signbit(block), ord("-"), 0)
    buf[..., n_int + 1] = ord(".")
    for pos in [*range(n_int + 7, n_int + 1, -1), *range(n_int, 0, -1)]:
        rest = q // 10
        digit = q - 10 * rest + ord("0")
        if pos < n_int:
            digit = np.where(q > 0, digit, 0)
        buf[..., pos] = digit
        q = rest
    buf[:, :-1, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    return buf[buf != 0].tobytes().decode("ascii")


def _csv_digit_loop(values):
    """Reference CSV of (m, 4) rows: the digit loop per block of
    ``_BLOCK_VALUES`` values, or ``%`` row by row for a block that it cannot
    write exactly."""
    out = ["t," + ",".join(JOINTS) + "\n"]
    rows = _block_rows(values.shape[1])
    for a in range(0, len(values), rows):
        block = values[a:a + rows]
        if np.all(np.abs(block) < 2.0**52 / 1e6):
            out.append(_csv_rows_digit_loop(block))
        else:
            out.append("".join(("%.6f," * 3 + "%.6f\n") % tuple(r) for r in block.tolist()))
    return "".join(out)


def test_csv_matches_the_digit_loop_reference(rng):
    """The word-table formatter writes the digit loop's bytes, where the
    3-digit groups, the sign and the half-integer ties meet."""
    edges = [999.9999995, 1000.0, 999999.9999995, 1e6, 999999999.9999995, 1e9]
    limit = 2.0**52 / 1e6
    random = np.exp(rng.uniform(math.log(1e-9), math.log(limit), 40_000)) * rng.choice([-1.0, 1.0], 40_000)
    cases = {
        "group edges": edges + [-v for v in edges],
        "next to the edges": [np.nextafter(v, w) * s for v in edges for w in (0, math.inf) for s in (1, -1)],
        "one block of everything": [-0.0, 0.0, 2.5e-6, -2.5e-6, 0.5e-6, -0.5e-6, 1234567890.0, -1234567890.0,
                                    4503599627.370495, -4.5e9, 999.9999995, -1000.0, 7.0, -1e-9, 1e6 + 0.5e-6],
        "log-uniform": random,
    }
    trajectories = {name: _timed(values) for name, values in cases.items()}
    trajectories["t past 1000 s in a block of angles"] = KeyPoses(1000.0 + 0.04 * np.arange(300), JOINTS,
                                                                  rng.uniform(-180, 180, size=(300, 3)))
    for name, traj in trajectories.items():
        values = np.column_stack([traj.times, traj.samples])
        assert _csv(traj) == _csv_digit_loop(values) == _csv_per_value(traj.times, traj.samples), name
    # every block of one trajectory gets its own group count; the buffer is resized
    block = _block_rows(len(JOINTS) + 1)
    traj = _timed(np.concatenate([np.resize(np.array(edges), block * 3), random[:5000 * 3], np.full(9, -0.0)]))
    assert _csv(traj) == _csv_digit_loop(np.column_stack([traj.times, traj.samples]))


def _rows_at_one_expression(times, angles, mode, t):
    """Reference: the interpolation as one expression over gathered rows."""
    idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    tau = np.clip((t - times[idx]) / (times[idx + 1] - times[idx]), 0.0, 1.0)
    s = tau if mode == "linear" else tau * tau * (3.0 - 2.0 * tau)
    return idx, tau, angles[idx] + s[..., None] * (angles[idx + 1] - angles[idx])


def _segment_index_search(times, t):
    """Reference: one search per time, the expression ``_rows_at`` used on every array."""
    return np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)


def test_segment_index_of_a_sorted_grid_matches_the_search(rng, monkeypatch):
    grids = []
    for trial in range(200):
        k = 2 if trial % 4 == 0 else int(rng.integers(3, 12))  # a single segment, or several
        times = np.cumsum(rng.uniform(0.01, 3.0, size=k))
        inside = rng.uniform(times[0] - 1.0, times[-1] + 1.0, size=int(rng.integers(0, 60)))
        # every key time, some twice, and points before and after the span
        grid = np.sort(np.concatenate([inside, times, times[rng.integers(0, k, size=3)], [times[0] - 2.0],
                                       [times[-1] + 2.0]]))
        grids.append((times, grid))
    # grids as synthesize samples them, whose points fall on the key times
    times = np.array([0.0, 0.5, 1.0, 2.5])
    grids += [(times, uniform_grid(0.0, 2.5, 10.0)), (times[:2], uniform_grid(0.0, 0.5, 4.0)),
              (times, np.empty(0)), (times, np.array([1.0]))]
    for times, grid in grids:
        got, want = _segment_index(times, grid), _segment_index_search(times, grid)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), (times, grid)

    # a sorted grid costs one search per inner key time, not one per sample
    searched = []
    search = np.searchsorted

    def counted(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return search(a, v, *args, **kwargs)

    times = np.cumsum(rng.uniform(0.1, 0.4, size=50))
    grid = uniform_grid(float(times[0]), float(times[-1]), 100.0)
    monkeypatch.setattr(np, "searchsorted", counted)
    _segment_index(times, grid)
    assert searched == [len(times) - 2]


def test_rows_at_matches_the_one_expression_reference(rng, monkeypatch):
    symbols = [S(D.Place, L.Low), S(D.Forward, L.Middle), S(D.Left, L.High)]
    for trial in range(40):
        k = int(rng.integers(2, 12))
        times = np.cumsum(rng.uniform(0.01, 3.0, size=k))
        angles = rng.uniform(-180, 180, size=(k, len(JOINTS)))
        # sorted, as _rows_at takes its times
        t = np.sort(np.concatenate([rng.uniform(times[0] - 1.0, times[-1] + 1.0, size=200), times]))
        for mode in ("linear", "cubic"):
            for got, want in zip(_rows_at(times, angles, mode, t), _rows_at_one_expression(times, angles, mode, t)):
                assert np.array_equal(got, want)
            # one time
            x = float(t[rng.integers(len(t))])
            _, _, rows = _rows_at(times, angles, mode, np.array([x]))
            want = _rows_at_one_expression(times, angles, mode, x)[2]
            assert rows.shape == (1, len(JOINTS)) and np.array_equal(rows[0], want)
            assert _at(KeyPoses(times, JOINTS, angles), mode, x) == dict(zip(JOINTS, want.tolist()))

    # synthesize's dictionary branch overwrites the interpolated rows of the
    # segments the dictionary covers; the others keep them
    for trial in range(10):
        k = int(rng.integers(3, 9))
        keyposes = KeyPoses(np.cumsum(rng.integers(1, 30, size=k)) / 7.0, JOINTS, rng.uniform(-90, 90, size=(k, 3)))
        states = [_state(symbols[int(i)]) for i in rng.integers(0, len(symbols), size=k)]
        mdict = MotionDictionary()
        observed = KeyPoses(np.arange(4.0), JOINTS, rng.uniform(-90, 90, size=(4, 3)))
        dict_update(mdict, state_key(states[0], states[1]), observed)
        mode = ("linear", "cubic")[trial % 2]
        got = [synthesize(keyposes, _codes(states), d, mode, 10.0, COLUMNS).samples for d in (mdict, None)]
        with monkeypatch.context() as m:
            m.setattr(trajectory, "_rows_at", _rows_at_one_expression)
            want = [synthesize(keyposes, _codes(states), d, mode, 10.0, COLUMNS).samples for d in (mdict, None)]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert not np.array_equal(got[0], got[1])

