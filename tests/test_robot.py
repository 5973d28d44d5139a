import math
import os

import numpy as np
import pytest

from labanmotion.encoder import digitize
from labanmotion.errors import BadSymbol, MissingColumn, ValidationError
from labanmotion.laban import (
    Cell,
    Direction,
    LabanColumn,
    LabanScore,
    LabanSymbol,
    Level,
    VALID_LIMB_SYMBOLS,
    load_score,
    states_at,
)
from labanmotion.robot import (
    BUNDLED_ROBOTS,
    Segment,
    concatenate,
    decode_score,
    decode_score_detailed,
    joints_to_vector,
    load_robot,
    parse_robot,
    project_path,
    reduce_columns,
    reduce_vectors,
    symbol_to_vector,
    vector_to_joints,
)

from conftest import random_rotation

DATA = os.path.join(os.path.dirname(__file__), "data")

D = Direction
L = Level
S = LabanSymbol

SEG_FREE = Segment("yaw", "pitch", (-180.0, 180.0), (-90.0, 90.0))
SEG_FRONTAL = Segment("yaw", "pitch", (-90.0, 90.0), (-90.0, 90.0))


def _full_score(symbol: LabanSymbol) -> LabanScore:
    cols = tuple(
        LabanColumn(name, (Cell(symbol, 0.0, 1.0),)) for name in ("LeftArm", "RightArm", "Head")
    )
    return LabanScore(columns=cols, total_duration=1.0)


def test_symbol_vectors():
    assert np.allclose(symbol_to_vector(S(D.Forward, L.Middle)), [1, 0, 0], atol=1e-12)
    assert np.allclose(symbol_to_vector(S(D.Place, L.Low)), [0, 0, -1], atol=1e-12)
    c = math.cos(math.radians(45.0))
    assert np.allclose(symbol_to_vector(S(D.Right, L.High)), [0, -c, c], atol=1e-9)


def test_symbol_place_middle_rejected():
    with pytest.raises(BadSymbol):
        symbol_to_vector(S(D.Place, L.Middle))


def test_symbol_roundtrip_all_26():
    for sym in VALID_LIMB_SYMBOLS:
        assert digitize(symbol_to_vector(sym)) == sym


def _merge_arm(upper, fore, hist):
    """Merge two directions on ``_merge_robot``'s one segment; ``hist`` is
    updated in place."""
    vectors = {"RightUpperArm": np.array(upper, dtype=float), "RightForearm": np.array(fore, dtype=float)}
    return reduce_vectors(vectors, _merge_robot(), hist)["arm/0"]


def test_concatenate_continue():
    v = concatenate(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), None)
    assert np.allclose(v, [1, 0, 0], atol=1e-12)
    # the combined direction is the history the segment's next merge gets
    hist = {}
    assert np.array_equal(_merge_arm([1, 0, 0], [1, 0, 0], hist), v)
    assert np.allclose(hist["arm/0"], v, atol=0)


def test_concatenate_orthogonal():
    v = concatenate(np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0]), None)
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(v, [r, 0, r], atol=1e-12)


def test_concatenate_reverse_uses_history():
    v = concatenate(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(v, [0, 0, 1], atol=1e-12)
    hist = {"arm/0": np.array([0.0, 0.0, 1.0])}
    _merge_arm([1, 0, 0], [-1, 0, 0], hist)
    assert np.allclose(hist["arm/0"], [0, 0, 1], atol=1e-12)


def test_concatenate_reverse_cold_start_keeps_first():
    v = concatenate(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]), None)
    assert np.allclose(v, [1, 0, 0], atol=1e-12)


def test_concatenate_commutative_and_planar(rng):
    for _ in range(50):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        if np.linalg.norm(a + b) < 1e-3:
            continue
        v_ab = concatenate(a, b, None)
        v_ba = concatenate(b, a, None)
        assert np.max(np.abs(v_ab - v_ba)) < 1e-12
        # result lies in span(a, b): zero component along a x b
        n = np.cross(a, b)
        if np.linalg.norm(n) > 1e-9:
            assert abs(v_ab @ (n / np.linalg.norm(n))) < 1e-9


def _merge_robot():
    return parse_robot(
        """
        {"name": "merger",
         "chains": [{"name": "arm", "segments": [
            {"yaw_joint": "a_yaw", "pitch_joint": "a_pitch",
             "yaw_limits": [-180, 180], "pitch_limits": [-90, 90]}]},
                    {"name": "hand", "segments": [
            {"yaw_joint": "h_yaw", "pitch_joint": "h_pitch",
             "yaw_limits": [-180, 180], "pitch_limits": [-90, 90]}]}],
         "column_map": {"RightUpperArm": ["arm/0"], "RightForearm": ["arm/0"]}}
        """
    )


def _split_robot():
    return parse_robot(
        """
        {"name": "splitter",
         "chains": [{"name": "upper", "segments": [
            {"yaw_joint": "u_yaw", "pitch_joint": "u_pitch",
             "yaw_limits": [-180, 180], "pitch_limits": [-90, 90]}]},
                    {"name": "fore", "segments": [
            {"yaw_joint": "f_yaw", "pitch_joint": "f_pitch",
             "yaw_limits": [-180, 180], "pitch_limits": [-90, 90]}]}],
         "column_map": {"RightArm": ["upper/0", "fore/0"]}}
        """
    )


def test_reduce_split_copies_direction():
    robot = _split_robot()
    out = reduce_columns({"RightArm": S(D.Forward, L.Middle)}, robot, {})
    assert set(out) == {"upper/0", "fore/0"}
    for v in out.values():
        assert np.allclose(v, [1, 0, 0], atol=1e-12)


def test_reduce_merge_continue():
    robot = _merge_robot()
    out = reduce_columns(
        {"RightUpperArm": S(D.Forward, L.Middle), "RightForearm": S(D.Forward, L.Middle)},
        robot,
        {},
    )
    assert np.allclose(out["arm/0"], [1, 0, 0], atol=1e-12)


def test_reduce_merge_reverse_cold_start():
    robot = _merge_robot()
    out = reduce_columns(
        {"RightUpperArm": S(D.Forward, L.Middle), "RightForearm": S(D.Backward, L.Middle)},
        robot,
        {},
    )
    assert np.allclose(out["arm/0"], [1, 0, 0], atol=1e-12)


def test_reduce_missing_column_raises():
    robot = _merge_robot()
    with pytest.raises(MissingColumn):
        reduce_columns({"RightUpperArm": S(D.Forward, L.Middle)}, robot, {})


def test_vector_to_joints_forward():
    yaw, pitch, clamped = vector_to_joints(np.array([1.0, 0, 0]), SEG_FRONTAL)
    assert (yaw, pitch, clamped) == (0.0, 0.0, False)


def test_vector_to_joints_backward_clamps_to_lower_tie():
    yaw, pitch, clamped = vector_to_joints(np.array([-1.0, 0, 0]), SEG_FRONTAL)
    assert clamped is True
    assert yaw == -90.0  # equidistant from both limits: lower wins
    assert pitch == 0.0


def test_vector_to_joints_nearest_limit():
    v = symbol_to_vector(S(D.LeftBackward, L.Middle))  # azimuth +135
    yaw, _, clamped = vector_to_joints(v, SEG_FRONTAL)
    assert clamped is True
    assert yaw == 90.0


def test_vector_to_joints_pole_yaw_zero():
    yaw, pitch, clamped = vector_to_joints(np.array([0.0, 0, 1.0]), SEG_FRONTAL)
    assert yaw == 0.0
    assert pitch == 90.0
    assert clamped is False


def test_joints_to_vector_inverts():
    for yaw, pitch in ((0, 0), (45, 30), (-90, -45), (120, 80)):
        v = joints_to_vector(yaw, pitch)
        seg = SEG_FREE
        y2, p2, clamped = vector_to_joints(v, seg)
        assert not clamped
        assert y2 == pytest.approx(yaw, abs=1e-9)
        assert p2 == pytest.approx(pitch, abs=1e-9)


def test_bundled_robots_load_and_differ():
    r7 = load_robot("frontal_7dof")
    r9 = load_robot("lab_9dof")
    assert len(r7.joint_names()) == 7
    assert len(r9.joint_names()) == 9
    assert set(r7.column_map) == set(r9.column_map) == {"LeftArm", "RightArm", "Head"}


def test_decode_single_cell_forward():
    robot = load_robot("frontal_7dof")
    score = _full_score(S(D.Forward, L.Middle))
    poses = decode_score(score, robot)
    assert len(poses) == 1
    pose = poses[0]
    assert pose.t == 1.0
    assert pose.angles["r_shoulder_yaw"] == pytest.approx(0.0, abs=1e-12)
    assert pose.angles["r_shoulder_pitch"] == pytest.approx(0.0, abs=1e-12)
    assert pose.angles["r_wrist_roll"] == 0.0
    # all joints within their declared limits
    for chain in robot.chains:
        for seg in chain.segments:
            assert seg.yaw_limits[0] <= pose.angles[seg.yaw_joint] <= seg.yaw_limits[1]
            assert seg.pitch_limits[0] <= pose.angles[seg.pitch_joint] <= seg.pitch_limits[1]


def test_decode_uncovered_column_neutral():
    # head coverage starts later; at the first boundary its segment is neutral
    cols = (
        LabanColumn("RightArm", (Cell(S(D.Forward, L.Middle), 0.0, 1.0),)),
        LabanColumn("LeftArm", (Cell(S(D.Place, L.Low), 0.0, 1.0),)),
        LabanColumn("Head", (Cell(S(D.Forward, L.Middle), 1.0, 1.0),)),
    )
    score = LabanScore(columns=cols, total_duration=2.0)
    robot = load_robot("frontal_7dof")
    detailed = decode_score_detailed(score, robot)
    assert [d.t for d in detailed] == [1.0, 2.0]
    first = detailed[0]
    assert first.segments["head/0"].driven is False
    assert first.pose.angles["head_yaw"] == 0.0
    assert first.pose.angles["head_pitch"] == 0.0
    assert detailed[1].segments["head/0"].driven is True
    # the symbols in force at each pose, every score column, uncovered ones absent
    assert first.states == {"RightArm": S(D.Forward, L.Middle), "LeftArm": S(D.Place, L.Low)}
    assert detailed[1].states == {"Head": S(D.Forward, L.Middle)}


def test_decoded_states_are_the_states_at_each_pose():
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    detailed = decode_score_detailed(score, load_robot("frontal_7dof"))
    assert len(detailed) > 2
    for d in detailed:
        assert d.states == states_at(score, [min(d.t, score.total_duration)])[0]


def test_decode_missing_mapped_column():
    cols = (LabanColumn("RightArm", (Cell(S(D.Forward, L.Middle), 0.0, 1.0),)),)
    score = LabanScore(columns=cols, total_duration=1.0)
    robot = load_robot("frontal_7dof")
    with pytest.raises(MissingColumn):
        decode_score(score, robot)


def test_decode_rejects_invalid_score():
    score = LabanScore(columns=(), total_duration=1.0)
    with pytest.raises(ValidationError):
        decode_score(score, load_robot("frontal_7dof"))


def test_decode_golden_four_key_times():
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    robot = load_robot("frontal_7dof")
    poses = decode_score(score, robot)
    assert [p.t for p in poses] == [0.5, 1.2, 1.9, 2.6]
    # hand-computed angles for the RightArm column symbols
    expect = [(0.0, -90.0), (0.0, 0.0), (-90.0, 45.0), (0.0, 90.0)]
    for pose, (yaw, pitch) in zip(poses, expect):
        assert pose.angles["r_shoulder_yaw"] == pytest.approx(yaw, abs=1e-9)
        assert pose.angles["r_shoulder_pitch"] == pytest.approx(pitch, abs=1e-9)


def test_decode_deterministic():
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    robot = load_robot("lab_9dof")
    a = decode_score(score, robot)
    b = decode_score(score, robot)
    assert [p.angles for p in a] == [p.angles for p in b]
    assert [p.t for p in a] == [p.t for p in b]


def test_hardware_independence_roundtrip():
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    times = None
    for name in BUNDLED_ROBOTS:
        robot = load_robot(name)
        detailed = decode_score_detailed(score, robot)
        ts = [d.t for d in detailed]
        if times is None:
            times = ts
        else:
            assert ts == times  # identical pose times across robots
        for d in detailed:
            for ref, cmd in d.segments.items():
                if not cmd.driven or cmd.merged or cmd.clamped:
                    continue
                assert digitize(joints_to_vector(cmd.yaw, cmd.pitch)) == cmd.symbol


def test_boundary_gesture_all_symbols():
    robot = load_robot("frontal_7dof")
    outside = {D.Backward, D.LeftBackward, D.RightBackward}
    for sym in VALID_LIMB_SYMBOLS:
        detailed = decode_score_detailed(_full_score(sym), robot)
        cmd = detailed[0].segments["right_arm/0"]
        seg = robot.segment("right_arm/0")
        assert seg.yaw_limits[0] <= cmd.yaw <= seg.yaw_limits[1]
        assert seg.pitch_limits[0] <= cmd.pitch <= seg.pitch_limits[1]
        if sym.direction in outside:
            assert cmd.clamped is True
            assert abs(cmd.yaw) == 90.0  # realized at a limit boundary
        else:
            assert cmd.clamped is False


def test_validate_robot_rules():
    with pytest.raises(ValidationError):
        parse_robot(
            '{"name": "bad", "chains": [], "column_map": {"RightArm": ["arm/0"]}}'
        )
    with pytest.raises(ValidationError):
        parse_robot(
            """{"name": "bad",
                "chains": [{"name": "a", "segments": [
                  {"yaw_joint": "y", "pitch_joint": "p",
                   "yaw_limits": [90, -90], "pitch_limits": [-90, 90]}]}],
                "column_map": {}}"""
        )


def test_decode_merge_robot_threads_history():
    # opposed upper-arm/forearm directions cancel; the decoder must fall back
    # to the previously combined direction at that boundary
    robot = _merge_robot()
    cols = (
        LabanColumn(
            "RightUpperArm",
            (Cell(S(D.Forward, L.Middle), 0.0, 1.0), Cell(S(D.Left, L.Middle), 1.0, 1.0)),
        ),
        LabanColumn(
            "RightForearm",
            (Cell(S(D.Forward, L.Middle), 0.0, 1.0), Cell(S(D.Right, L.Middle), 1.0, 1.0)),
        ),
    )
    score = LabanScore(columns=cols, total_duration=2.0)
    detailed = decode_score_detailed(score, robot)
    assert [d.t for d in detailed] == [1.0, 2.0]
    first, second = detailed
    # t=1: both forward -> combined forward
    assert first.pose.angles["a_yaw"] == pytest.approx(0.0, abs=1e-9)
    assert first.pose.angles["a_pitch"] == pytest.approx(0.0, abs=1e-9)
    assert first.segments["arm/0"].merged is True
    # t=2: left + right cancel -> history keeps the forward direction
    assert second.pose.angles["a_yaw"] == pytest.approx(0.0, abs=1e-9)
    assert second.pose.angles["a_pitch"] == pytest.approx(0.0, abs=1e-9)


def test_decode_split_robot_copies_column():
    robot = _split_robot()
    cols = (LabanColumn("RightArm", (Cell(S(D.Left, L.High), 0.0, 1.0),)),)
    score = LabanScore(columns=cols, total_duration=1.0)
    poses = decode_score(score, robot)
    assert poses[0].angles["u_yaw"] == pytest.approx(90.0, abs=1e-9)
    assert poses[0].angles["f_yaw"] == pytest.approx(90.0, abs=1e-9)
    assert poses[0].angles["u_pitch"] == pytest.approx(45.0, abs=1e-9)
    assert poses[0].angles["f_pitch"] == pytest.approx(45.0, abs=1e-9)


def test_project_path_continuous_directions():
    from labanmotion.skeleton import synth_motion

    seq = synth_motion(
        {"pattern": "move_hold_move", "part": "right_arm",
         "from_pose": "place_low", "to_pose": "forward_middle", "hold": 0.5},
        rate=30.0,
    )
    robot = load_robot("frontal_7dof")
    start = project_path(seq, 0, 0, robot)[0]
    end = project_path(seq, len(seq) - 1, len(seq) - 1, robot)[0]
    assert start.angles["r_shoulder_pitch"] == pytest.approx(-90.0, abs=1e-6)
    assert end.angles["r_shoulder_pitch"] == pytest.approx(0.0, abs=1e-6)
    # mid-move angles are intermediate, not quantized to 45-degree steps
    mid = project_path(seq, len(seq) // 2, len(seq) // 2, robot)[0]
    assert -90.0 < mid.angles["r_shoulder_pitch"] < 0.0
