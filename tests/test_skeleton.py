import json
import math

import numpy as np
import pytest

from labanmotion.errors import (
    BadDescriptor,
    DegeneratePose,
    InsufficientData,
    MalformedFrame,
    ParseError,
    TimeOrderError,
)
from labanmotion.skeleton import (
    ALL_JOINTS,
    JOINT_INDEX,
    JointName,
    SkeletonSequence,
    body_frame,
    load_sequence,
    parse_sequence,
    resample,
    save_sequence,
    serialize_sequence,
    synth_motion,
)

from conftest import random_rotation, transform_sequence


def _upright_pose():
    """(12, 3) positions of an upright pose with the arms held out sideways."""
    pos = {
        JointName.SpineBase: np.array([0.0, 0.0, 0.0]),
        JointName.SpineShoulder: np.array([0.0, 0.0, 0.5]),
        JointName.Neck: np.array([0.0, 0.0, 0.56]),
        JointName.Head: np.array([0.0, 0.0, 0.73]),
        JointName.ShoulderLeft: np.array([0.0, 0.18, 0.5]),
        JointName.ShoulderRight: np.array([0.0, -0.18, 0.5]),
        JointName.ElbowLeft: np.array([0.0, 0.48, 0.5]),
        JointName.ElbowRight: np.array([0.0, -0.48, 0.5]),
        JointName.WristLeft: np.array([0.0, 0.75, 0.5]),
        JointName.WristRight: np.array([0.0, -0.75, 0.5]),
        JointName.HandLeft: np.array([0.0, 0.83, 0.5]),
        JointName.HandRight: np.array([0.0, -0.83, 0.5]),
    }
    return np.array([pos[j] for j in ALL_JOINTS])


def _file_obj(times):
    """A skeleton file object with the upright pose at each time."""
    joints = {j.value: list(map(float, p)) for j, p in zip(ALL_JOINTS, _upright_pose())}
    return {
        "sample_rate_hint": None,
        "frames": [{"t": t, "joints": {k: list(p) for k, p in joints.items()}} for t in times],
    }


def test_load_two_frame_file(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(_file_obj([0.0, 0.1])))
    seq = load_sequence(str(path))
    assert len(seq) == 2


def test_load_missing_joint(tmp_path):
    obj = _file_obj([0.0, 0.1])
    del obj["frames"][1]["joints"]["WristLeft"]
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFrame) as exc:
        load_sequence(str(path))
    assert exc.value.index == 1
    assert exc.value.joint == "WristLeft"


def test_load_duplicate_timestamp(tmp_path):
    obj = _file_obj([0.0, 0.0])
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(TimeOrderError) as exc:
        load_sequence(str(path))
    assert exc.value.index == 1


def test_load_non_finite_coordinate(tmp_path):
    obj = _file_obj([0.0])
    obj["frames"][0]["joints"]["Head"][2] = float("nan")
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(obj).replace("NaN", "NaN"))
    with pytest.raises(MalformedFrame):
        load_sequence(str(path))



def _set(path, value):
    """Mutator that sets obj["frames"][i]...[key] = value (value(obj) if callable)."""
    def apply(obj):
        *head, last = path
        target = obj["frames"]
        for key in head:
            target = target[key]
        target[last] = value(obj) if callable(value) else value
    return apply


def _delete(path):
    def apply(obj):
        *head, last = path
        target = obj["frames"]
        for key in head:
            target = target[key]
        del target[last]
    return apply


NAN, INF = float("nan"), float("inf")

# (mutators, expected exception, expected attributes); faults sit in frame 2
# unless a case checks which of several faults is reported first
MALFORMED = {
    "missing-joint": ([_delete([2, "joints", "ElbowLeft"])], MalformedFrame, {"index": 2, "joint": "ElbowLeft"}),
    "short-triple": ([_set([2, "joints", "Head"], [0.0, 0.0])], MalformedFrame, {"index": 2, "joint": "Head"}),
    "nested-triple": ([_set([2, "joints", "Head"], [[0.0], [0.0], [0.0]])], MalformedFrame, {"index": 2, "joint": "Head"}),
    "string-coordinate": ([_set([2, "joints", "Neck", 1], "up")], MalformedFrame, {"index": 2, "joint": "Neck"}),
    "nan-coordinate": ([_set([2, "joints", "WristRight", 1], NAN)], MalformedFrame, {"index": 2, "joint": "WristRight"}),
    "infinite-coordinate": ([_set([2, "joints", "HandLeft", 0], INF)], MalformedFrame, {"index": 2, "joint": "HandLeft"}),
    "joint-on-parent": ([_set([2, "joints", "ElbowRight"], lambda o: o["frames"][2]["joints"]["ShoulderRight"])],
                        MalformedFrame, {"index": 2, "joint": "ElbowRight"}),
    "missing-t": ([_delete([2, "t"])], ParseError, {"location": "frames[2].t"}),
    "nan-t": ([_set([2, "t"], NAN)], ParseError, {"location": "frames[2].t"}),
    "infinite-t": ([_set([2, "t"], INF)], ParseError, {"location": "frames[2].t"}),
    "bool-t": ([_set([2, "t"], True)], ParseError, {"location": "frames[2].t"}),
    "t-beyond-float-range": ([_set([2, "t"], 10**400)], ParseError, {"location": "frames[2].t"}),
    "coordinate-beyond-float-range": ([_set([2, "joints", "Neck", 2], -10**400)], MalformedFrame,
                                      {"index": 2, "joint": "Neck"}),
    "geometry-before-later-huge-t": ([_set([1, "joints", "Head", 0], NAN), _set([2, "t"], 10**400)],
                                     MalformedFrame, {"index": 1, "joint": "Head"}),
    "repeated-t": ([_set([2, "t"], lambda o: o["frames"][1]["t"])], TimeOrderError, {"index": 2}),
    "decreasing-t": ([_set([2, "t"], 0.0)], TimeOrderError, {"index": 2}),
    "joints-not-object": ([_set([2, "joints"], [])], ParseError, {"location": "frames[2]"}),
    "frame-not-object": ([_set([2], 5)], ParseError, {"location": "frames[2]"}),
    "earliest-frame-first": ([_set([3, "joints", "Head", 0], NAN), _delete([1, "joints", "HandRight"])],
                             MalformedFrame, {"index": 1, "joint": "HandRight"}),
    "geometry-before-later-structure": ([_set([1, "joints", "Head", 2], NAN), _set([2, "joints", "Neck"], 1.0)],
                                        MalformedFrame, {"index": 1, "joint": "Head"}),
    "structure-before-later-geometry": ([_set([1, "joints", "Neck"], 1.0), _delete([2, "joints", "Head"])],
                                        MalformedFrame, {"index": 1, "joint": "Neck"}),
    "joint-order-within-frame": ([_delete([2, "joints", "HandRight"]), _set([2, "joints", "SpineShoulder", 0], NAN)],
                                 MalformedFrame, {"index": 2, "joint": "SpineShoulder"}),
    "triple-before-t": ([_set([2, "t"], None), _set([2, "joints", "HandRight"], "x")],
                        MalformedFrame, {"index": 2, "joint": "HandRight"}),
    "frames-before-time-order": ([_set([1, "t"], 0.0), _set([3, "joints", "Neck", 0], INF)],
                                 MalformedFrame, {"index": 3, "joint": "Neck"}),
    "numeric-string-coordinate": ([_set([2, "joints", "Neck", 0], "0.1")], MalformedFrame,
                                  {"index": 2, "joint": "Neck"}),
    "bool-coordinate": ([_set([2, "joints", "WristLeft", 1], True)], MalformedFrame,
                        {"index": 2, "joint": "WristLeft"}),
    "string-and-bool-triple": ([_set([2, "joints", "HandRight"], ["0.1", True, 0.8])], MalformedFrame,
                               {"index": 2, "joint": "HandRight"}),
    "type-before-later-geometry": ([_set([1, "joints", "Head", 0], "0"), _set([2, "joints", "Neck", 0], NAN)],
                                   MalformedFrame, {"index": 1, "joint": "Head"}),
    "geometry-before-later-type": ([_set([1, "joints", "Head", 2], NAN), _set([2, "joints", "Neck", 1], False)],
                                   MalformedFrame, {"index": 1, "joint": "Head"}),
    "type-joint-order-within-frame": ([_set([2, "joints", "HandRight", 0], True),
                                       _set([2, "joints", "SpineShoulder", 2], "0.5")],
                                      MalformedFrame, {"index": 2, "joint": "SpineShoulder"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_malformed_skeleton(case):
    mutators, error, attrs = MALFORMED[case]
    obj = json.loads(serialize_sequence(synth_motion({"pattern": "static", "duration": 0.2}, rate=30.0)))
    for mutate in mutators:
        mutate(obj)
    with pytest.raises(error) as exc:
        parse_sequence(json.dumps(obj))
    assert {k: getattr(exc.value, k) for k in attrs} == attrs


def test_sample_rate_hint_needs_uniform_time_steps():
    obj = json.loads(serialize_sequence(synth_motion({"pattern": "static", "duration": 0.5}, rate=30.0)))
    assert parse_sequence(json.dumps(obj)).sample_rate == 30.0
    obj["frames"][4]["t"] += 0.01
    assert parse_sequence(json.dumps(obj)).sample_rate is None
    obj["frames"][4]["t"] -= 0.01
    obj["sample_rate_hint"] = 25.0
    assert parse_sequence(json.dumps(obj)).sample_rate is None
    obj["sample_rate_hint"] = True
    assert parse_sequence(json.dumps(obj)).sample_rate is None
    obj["sample_rate_hint"] = 10**400
    assert parse_sequence(json.dumps(obj)).sample_rate is None

def test_resample_identity_at_same_rate():
    seq = synth_motion({"pattern": "static", "duration": 1.0}, rate=30.0)
    out = resample(seq, 30.0)
    assert len(out) == len(seq)
    assert np.max(np.abs(seq.positions - out.positions)) < 1e-9


def test_resample_midpoint():
    p0 = _upright_pose()
    p1 = p0 + np.array([1.0, 0.0, 0.0])
    seq = SkeletonSequence(np.array([0.0, 1.0]), np.stack([p0, p1]))
    out = resample(seq, 2.0)
    assert len(out) == 3
    wrist = JOINT_INDEX[JointName.WristRight]
    assert out.times[1] == pytest.approx(0.5, abs=1e-12)
    assert out.positions[1, wrist, 0] == pytest.approx(p0[wrist, 0] + 0.5, abs=1e-12)


def test_resample_single_frame():
    seq = SkeletonSequence(np.array([0.0]), _upright_pose()[None])
    with pytest.raises(InsufficientData):
        resample(seq, 30.0)


def test_resample_idempotent(rng):
    seq = synth_motion(
        {"pattern": "move_hold_move", "part": "right_arm",
         "from_pose": "place_low", "to_pose": "forward_middle", "hold": 0.5},
        rate=30.0,
    )
    once = resample(seq, 30.0)
    twice = resample(once, 30.0)
    assert len(once) == len(twice)
    assert np.max(np.abs(once.positions - twice.positions)) < 1e-9


def test_body_frame_axis_aligned():
    bf = body_frame(_upright_pose())
    assert np.allclose(bf.up, [0, 0, 1], atol=1e-12)
    assert np.allclose(bf.left, [0, 1, 0], atol=1e-12)
    assert np.allclose(bf.forward, [1, 0, 0], atol=1e-12)
    assert np.allclose(bf.origin, [0, 0, 0.5], atol=1e-12)


def test_body_frame_rotated_90_about_z():
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    bf = body_frame(_upright_pose() @ Rz.T)
    assert np.allclose(bf.forward, Rz @ np.array([1.0, 0.0, 0.0]), atol=1e-9)
    assert np.allclose(bf.left, Rz @ np.array([0.0, 1.0, 0.0]), atol=1e-9)
    # orthonormality preserved
    M = np.column_stack([bf.forward, bf.left, bf.up])
    assert np.allclose(M.T @ M, np.eye(3), atol=1e-9)


def test_body_frame_equivariance_randomized(rng):
    pose = _upright_pose()
    for _ in range(25):
        R = random_rotation(rng)
        t = rng.normal(size=3)
        moved = pose @ R.T + t
        bf0 = body_frame(pose)
        bf1 = body_frame(moved)
        assert np.max(np.abs(bf1.forward - R @ bf0.forward)) < 1e-6
        assert np.max(np.abs(bf1.left - R @ bf0.left)) < 1e-6
        assert np.max(np.abs(bf1.up - R @ bf0.up)) < 1e-6


def test_body_frame_orthonormal_and_right_handed():
    bf = body_frame(_upright_pose())
    for v in (bf.forward, bf.left, bf.up):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    assert abs(bf.forward @ bf.left) < 1e-9
    assert abs(bf.forward @ bf.up) < 1e-9
    assert abs(bf.left @ bf.up) < 1e-9
    det = np.linalg.det(np.column_stack([bf.forward, bf.left, bf.up]))
    assert abs(det - 1.0) < 1e-6


def test_body_frame_degenerate_shoulders():
    pose = _upright_pose()
    pose[JOINT_INDEX[JointName.ShoulderLeft]] = pose[JOINT_INDEX[JointName.ShoulderRight]]
    with pytest.raises(DegeneratePose):
        body_frame(pose)


def test_synth_static_frame_count_and_constancy():
    seq = synth_motion({"pattern": "static", "duration": 2.0}, rate=30.0)
    assert len(seq) == 60
    for pose in seq.positions[1:]:
        assert np.array_equal(pose, seq.positions[0])


def test_synth_move_hold_move_constant_on_hold():
    hold = 0.5
    seq = synth_motion(
        {"pattern": "move_hold_move", "part": "right_arm",
         "from_pose": "place_low", "to_pose": "forward_middle", "hold": hold},
        rate=30.0,
    )
    ts = seq.times
    hold_start = ts[-1] - hold + 1e-9
    wrist = seq.positions_of(JointName.WristRight)
    on_hold = wrist[ts >= hold_start]
    assert len(on_hold) >= 10
    assert np.max(np.abs(on_hold - on_hold[0])) < 1e-12


def test_synth_reach_sequence_three_plateaus():
    # derived: count low-speed runs in the generated wrist speed signal
    seq = synth_motion(
        {"pattern": "reach_sequence", "part": "right_arm",
         "poses": [["place_low", 0.6], ["forward_middle", 0.6], ["left_high", 0.6]]},
        rate=30.0,
    )
    wrist = seq.positions_of(JointName.WristRight)
    speed = np.linalg.norm(np.diff(wrist, axis=0), axis=1) * 30.0
    still = speed < 1e-6
    runs = 0
    prev = False
    length = 0
    for s in list(still) + [False]:
        if s:
            length += 1
        else:
            if length >= 5:
                runs += 1
            length = 0
    assert runs == 3


def test_synth_unknown_pattern():
    with pytest.raises(BadDescriptor):
        synth_motion({"pattern": "wiggle"})


def test_synth_unknown_pose():
    with pytest.raises(BadDescriptor):
        synth_motion(
            {"pattern": "move_hold_move", "part": "right_arm",
             "from_pose": "sideways_sorta", "to_pose": "forward_middle", "hold": 0.5}
        )


def test_serialize_load_roundtrip_bitwise(tmp_path):
    seq = synth_motion(
        {"pattern": "move_hold_move", "part": "left_arm",
         "from_pose": "place_low", "to_pose": "left_high", "hold": 0.4},
        rate=30.0,
    )
    path = tmp_path / "seq.json"
    save_sequence(seq, str(path))
    back = load_sequence(str(path))
    assert back.sample_rate == seq.sample_rate
    assert len(back) == len(seq)
    assert np.array_equal(back.times, seq.times)
    assert np.array_equal(back.positions, seq.positions)


def test_parse_serialize_roundtrip_seeded(rng):
    # random full-precision sequences, with and without a rate, survive
    # serialize -> parse bit for bit and serialize to strict JSON
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for _ in range(200):
        n = int(rng.integers(2, 12))
        if rng.random() < 0.5:
            rate = float(rng.choice([1.0, 24.0, 30.0, 1000.0]))
            times = np.arange(n) / rate
        else:
            rate = None
            times = np.cumsum(rng.uniform(1e-6, 10.0, n)) - rng.uniform(-1e3, 1e3)
        positions = rng.normal(size=(n, len(ALL_JOINTS), 3)) * 10.0 ** rng.uniform(-100, 100)
        seq = SkeletonSequence(times, positions, rate)
        text = serialize_sequence(seq)
        json.loads(text, parse_constant=refuse)
        back = parse_sequence(text)
        assert back.sample_rate == seq.sample_rate
        assert np.array_equal(back.times, seq.times) and np.array_equal(back.positions, seq.positions)
        assert serialize_sequence(back) == text


def test_serialize_parse_identity_twice():
    seq = synth_motion({"pattern": "static", "duration": 0.5}, rate=30.0)
    text1 = serialize_sequence(seq)
    text2 = serialize_sequence(parse_sequence(text1))
    assert text1 == text2
