import math
import os

import numpy as np
import pytest

from labanmotion.encoder import COLUMN_DISTAL, digitize, segment_direction
from labanmotion.errors import BadSymbol, MissingColumn, ValidationError
from labanmotion import cli, robot as robot_mod
from labanmotion.keyframe import EnergyParams, KeyFrameSet
from labanmotion.laban import (
    Cell,
    Direction,
    LabanColumn,
    LabanScore,
    LabanSymbol,
    Level,
    SYMBOL_CODES,
    VALID_LIMB_SYMBOLS,
    direction_vector,
    load_score,
    states_at,
)
from labanmotion.robot import (
    BUNDLED_ROBOTS,
    _round9,
    DecodedPose,
    JointPose,
    KeyPoses,
    Segment,
    SegmentCommand,
    concatenate,
    decode_score,
    decode_score_detailed,
    load_robot,
    parse_robot,
    project_path,
    symbol_to_vector,
    validate_robot,
    vector_to_joints,
)
from labanmotion.skeleton import JOINT_INDEX, JointName, SkeletonSequence, body_frame, synth_motion

from labanmotion.trajectory import MotionDictionary, dict_update, serialize_dictionary

from conftest import dict_build_per_transition, encode_pose_reference, random_rotation, state_key, states_brute_force

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


_MERGE_ROBOT = """
    {"name": "merger",
     "chains": [{"name": "arm", "segments": [
        {"yaw_joint": "a_yaw", "pitch_joint": "a_pitch",
         "yaw_limits": [-180, 180], "pitch_limits": [-90, 90]}]},
                {"name": "hand", "segments": [
        {"yaw_joint": "h_yaw", "pitch_joint": "h_pitch",
         "yaw_limits": [-180, 180], "pitch_limits": [-90, 90]}]}],
     "column_map": {"RightUpperArm": ["arm/0"], "RightForearm": ["arm/0"]}}
    """


def _merge_robot():
    return parse_robot(_MERGE_ROBOT)


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


def test_direction_vector_inverts_vector_to_joints():
    for yaw, pitch in ((0, 0), (45, 30), (-90, -45), (120, 80)):
        v = direction_vector(yaw, pitch)
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
    # the codes of the symbols in force at each pose, mapped columns sorted, -1 where none is
    assert detailed.columns == ("Head", "LeftArm", "RightArm")
    fm, pl = SYMBOL_CODES[S(D.Forward, L.Middle)], SYMBOL_CODES[S(D.Place, L.Low)]
    assert detailed.codes.tolist() == [[-1, pl, fm], [fm, -1, -1]]


def test_decoded_states_are_the_states_at_each_pose():
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    robot = load_robot("frontal_7dof")
    detailed = decode_score_detailed(score, robot)
    assert len(detailed) > 2
    names = [col.name for col in score.columns]
    for i, d in enumerate(detailed):
        states = states_at(score, [min(d.t, score.total_duration)])[0]
        assert detailed.codes[i].tolist() == [states[names.index(col)] for col in robot.mapped_columns]


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
                assert digitize(direction_vector(cmd.yaw, cmd.pitch)) == cmd.symbol


def test_boundary_gesture_all_symbols():
    robot = load_robot("frontal_7dof")
    outside = {D.Backward, D.LeftBackward, D.RightBackward}
    for sym in VALID_LIMB_SYMBOLS:
        detailed = decode_score_detailed(_full_score(sym), robot)
        cmd = detailed[0].segments["right_arm/0"]
        seg = next(seg for ref, seg, _ in robot.segment_table if ref == "right_arm/0")
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


def test_validate_robot_checks_column_map_keys_by_the_score_column_rules():
    frontal = load_robot("frontal_7dof")

    def problems(column_map):
        return validate_robot(robot_mod.RobotDescription(frontal.name, frontal.chains, column_map))

    assert problems(frontal.column_map) == []
    # a split layout on one side and a whole arm on the other is allowed, as in a score
    assert problems({"LeftArm": ("left_arm/0",), "RightUpperArm": ("right_arm/0",),
                     "RightForearm": ("right_arm/0",), "Head": ("head/0",)}) == []
    assert problems({"RightArms": ("right_arm/0",), "Head": ("head/0",), "Neck": ("head/0",)}) == [
        "column_map: RightArms: unknown-column: not a known column name",
        "column_map: Neck: unknown-column: not a known column name",
    ]
    assert problems({"LeftArm": ("left_arm/0",), "LeftForearm": ("left_arm/0",), "RightArm": ("right_arm/0",),
                     "RightUpperArm": ("right_arm/0",), "RightForearm": ("head/0",)}) == [
        "column_map: LeftArm: arm-exclusive: LeftArm cannot coexist with LeftForearm",
        "column_map: RightArm: arm-exclusive: RightArm cannot coexist with RightUpperArm, RightForearm",
    ]
    # the column rules come first, then the segment rules
    assert problems({"Tail": ("tail/0",)}) == ["column_map: Tail: unknown-column: not a known column name",
                                               "column Tail references unknown segment tail/0"]


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


# ---------------------------------------------------------------------------
# Brute-force references: the per-pose decode and the per-frame projection
# that the array code replaced, with their helpers, kept as they were
# ---------------------------------------------------------------------------

def _angular_distance(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def _clamp_nearest(value, lo, hi):
    """Clamp to the angularly nearest limit; equidistant picks the lower."""
    if lo <= value <= hi:
        return value, False
    d_lo = _angular_distance(value, lo)
    d_hi = _angular_distance(value, hi)
    return (lo, True) if d_lo <= d_hi else (hi, True)


def _vector_to_joints(v, seg):
    """(yaw, pitch, clamped) realizing a unit direction on a gimbal segment.

    Yaw is measured from forward toward left, pitch from the horizontal up.
    At the poles yaw is defined as 0. Angles outside the segment's limits
    are clamped to the nearest limit and flagged.
    """
    fx, ly, uz = float(v[0]), float(v[1]), float(v[2])
    pitch = math.degrees(math.asin(max(-1.0, min(1.0, uz))))
    if fx * fx + ly * ly < 1e-12:
        yaw = 0.0
    else:
        yaw = math.degrees(math.atan2(ly, fx))
    yaw_c, yaw_clamped = _clamp_nearest(yaw, *seg.yaw_limits)
    pitch_c, pitch_clamped = _clamp_nearest(pitch, *seg.pitch_limits)
    return yaw_c, pitch_c, yaw_clamped or pitch_clamped


def reduce_vectors(vectors, robot, hist):
    """Per-segment direction from per-column directions.

    Split targets receive their source column's vector unchanged; merge
    targets left-fold ``concatenate`` over their source columns in
    column-map order, each step's result being the next step's history.
    Segments whose sources are not all present are left out. ``hist`` maps
    each merged segment to its last combined direction and is updated in
    place.
    """
    out = {}
    for ref, _, sources in robot.segment_table:
        if not sources or any(c not in vectors for c in sources):
            continue
        v = vectors[sources[0]]
        if len(sources) > 1:
            last = hist.get(ref)
            for col in sources[1:]:
                v = last = concatenate(v, vectors[col], last)
            hist[ref] = v
        out[ref] = v
    return out


def reduce_columns(symbols, robot, hist):
    """Symbol form of :func:`reduce_vectors`; missing source columns raise."""
    for ref, _, sources in robot.segment_table:
        for col in sources:
            if col not in symbols:
                raise MissingColumn(ref, col)
    vectors = {col: symbol_to_vector(sym) for col, sym in symbols.items()}
    return reduce_vectors(vectors, robot, hist)


def _joint_angles(per_segment, robot):
    """Joint angles for :func:`reduce_vectors` output: the robot's neutral
    angles with each driven segment's yaw and pitch overwritten, plus the
    ``(yaw, pitch, clamped)`` of every driven segment."""
    angles = dict(robot.neutral_angles)
    driven = {}
    for ref, seg, _ in robot.segment_table:
        if ref in per_segment:
            yaw, pitch, _ = driven[ref] = _vector_to_joints(per_segment[ref], seg)
            angles[seg.yaw_joint] = yaw
            angles[seg.pitch_joint] = pitch
    return angles, driven


def _decode_per_pose(score, robot):
    """Reference decode of a valid score: one reduce and one angle dict per
    pose. Returns the poses and the {column: symbol} maps in force at each."""
    times = sorted({round(cell.end, 9) for col in score.columns for cell in col.cells})
    states = [states_brute_force(score, min(t, score.total_duration)) for t in times]
    hist = {}
    out = []
    for t, symbols in zip(times, states):
        vectors = {
            col: symbol_to_vector(sym)
            for col, sym in symbols.items()
            if col in robot.column_map
        }
        angles, driven = _joint_angles(reduce_vectors(vectors, robot, hist), robot)
        detail = {}
        for ref, seg, sources in robot.segment_table:
            if ref in driven:
                merged = len(sources) > 1
                symbol = symbols[sources[0]] if not merged else None
                detail[ref] = SegmentCommand(*driven[ref], True, merged, symbol)
            else:
                yaw, pitch = angles[seg.yaw_joint], angles[seg.pitch_joint]
                detail[ref] = SegmentCommand(yaw, pitch, False, False, False, None)
        out.append(DecodedPose(t=t, pose=JointPose(t=t, angles=angles), segments=detail))
    return out, states


def _project_per_frame(seq, start, end, robot):
    """Reference projection: one reduce and one angle dict per frame."""
    positions = seq.positions[start:end + 1]
    bf = body_frame(positions)
    vectors = {
        col: segment_direction(positions, COLUMN_DISTAL[col], bf)
        for col in robot.column_map
        if col in COLUMN_DISTAL
    }
    hist = {}
    poses = []
    for k, t in enumerate(seq.times[start:end + 1].tolist()):
        per_segment = reduce_vectors({col: v[k] for col, v in vectors.items()}, robot, hist)
        poses.append(JointPose(t, _joint_angles(per_segment, robot)[0]))
    return poses


def _merge3_robot():
    """Upper arm, forearm and head merged into one torso segment; the forearm
    also drives a narrow wrist. Roll and fixed joints have nonzero neutrals."""
    return parse_robot(
        """
        {"name": "merge3",
         "chains": [{"name": "torso", "segments": [
            {"yaw_joint": "t_yaw", "pitch_joint": "t_pitch", "yaw_limits": [-120, 120],
             "pitch_limits": [-60, 80], "roll_joint": "t_roll", "roll_limits": [10, 40]}]},
                    {"name": "wrist", "segments": [
            {"yaw_joint": "w_yaw", "pitch_joint": "w_pitch",
             "yaw_limits": [-45, 45], "pitch_limits": [-30, 30]}]}],
         "column_map": {"RightUpperArm": ["torso/0"], "RightForearm": ["torso/0", "wrist/0"],
                        "Head": ["torso/0"]},
         "fixed_joints": [{"name": "base", "limits": [-30, -5]}]}
        """
    )


def _reference_robots():
    return {"frontal_7dof": load_robot("frontal_7dof"), "lab_9dof": load_robot("lab_9dof"),
            "merge": _merge_robot(), "merge3": _merge3_robot()}


# opposed pairs (Forward/Backward, Left/Right, Place High/Low, two diagonals)
# make merged directions cancel often
_OPPOSED = tuple(S(d, l) for d, l in (
    (D.Forward, L.Middle), (D.Backward, L.Middle), (D.Left, L.Middle), (D.Right, L.Middle),
    (D.Place, L.High), (D.Place, L.Low), (D.LeftBackward, L.High), (D.RightForward, L.Low)))


def _random_decode_score(rng, names):
    """Cells on a 0.25 s grid with gaps; a column may start late, so it is
    uncovered at the first poses. Symbols come from the opposed pairs or
    from all 26."""
    columns = []
    end = 0
    for name in names:
        cells = []
        t = int(rng.integers(0, 4))
        for _ in range(int(rng.integers(1, 7))):
            pool = _OPPOSED if rng.random() < 0.6 else VALID_LIMB_SYMBOLS
            dur = int(rng.integers(1, 5))
            cells.append(Cell(pool[int(rng.integers(0, len(pool)))], t / 4.0, dur / 4.0))
            t += dur + int(rng.integers(0, 3)) * int(rng.random() < 0.3)
        end = max(end, t)
        columns.append(LabanColumn(name, tuple(cells)))
    return LabanScore(columns=tuple(columns), total_duration=end / 4.0 + 0.5)


def _same_bits(got, want):
    """Equal float arrays down to the sign of zero."""
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_same_decode(got, ref, states, robot):
    joints = got.poses.joints
    refs = [r for r, _, _ in robot.segment_table]
    shape = (len(ref), len(refs))
    assert got.poses.times.tolist() == [d.t for d in ref]
    want = np.array([[d.pose.angles[j] for j in joints] for d in ref]).reshape(len(ref), len(joints))
    assert np.array_equal(got.poses.samples, want)
    assert _same_bits(got.poses.samples, want)
    assert sorted(joints) == sorted(robot.joint_names())
    assert np.array_equal(got.driven, np.array([[d.segments[r].driven for r in refs] for d in ref]).reshape(shape))
    assert np.array_equal(got.clamped, np.array([[d.segments[r].clamped for r in refs] for d in ref]).reshape(shape))
    assert [[d.segments[r].symbol for r in refs] for d in got] == [[d.segments[r].symbol for r in refs] for d in ref]
    assert got.columns == robot.mapped_columns
    assert got.codes.tolist() == [[SYMBOL_CODES[s[col]] if col in s else -1 for col in got.columns] for s in states]
    assert [d.segments for d in got] == [d.segments for d in ref]


def test_boundary_time_rounding_matches_round():
    """decode's boundary times round with ``_round9``, one array pass, which
    must give Python's ``round(v, 9)`` float for float: at and next to
    half-nanoseconds, on start + duration sums that drift off the nanosecond
    grid, and at magnitudes of 2**52 / 1e9 and more, where v·1e9 has no
    fraction bits left."""
    rng = np.random.default_rng(2024)
    half = (np.arange(-20_000, 20_000) + 0.5) / 1e9
    seconds = rng.integers(0, 5_000, size=half.size).astype(float)
    starts = np.round(rng.uniform(0.0, 600.0, 20_000), 3)
    durations = np.round(rng.uniform(0.001, 5.0, 20_000), int(rng.integers(1, 10)))
    big = 2.0**52 / 1e9
    cases = {
        "halfway": np.concatenate([half, np.nextafter(half, np.inf), np.nextafter(half, -np.inf)]),
        "halfway past whole seconds": seconds + np.abs(half),
        "drifted sums": np.concatenate([starts + durations, np.cumsum(durations), np.cumsum(np.full(5_000, 0.1))]),
        "at and past 2**52 / 1e9": np.concatenate([[big, np.nextafter(big, 0.0), np.nextafter(big, np.inf), 2 * big,
                                                    1e12, 1e300, 1.7e308], big * rng.uniform(1.0, 1e6, 5_000),
                                                   big * rng.uniform(0.5, 1.0, 5_000)]),
        "small and signed": [0.0, -0.0, 5e-10, -5e-10, 1.5e-9, 2.5e-9, 1e-300, -1e-300, 4.9e-324, -2.5e-9],
        "uniform": rng.uniform(-1000.0, 1000.0, 50_000),
    }
    for name, values in cases.items():
        values = np.asarray(values, dtype=float)
        got = _round9(values)
        want = np.array([round(v, 9) for v in values.tolist()])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name  # bit for bit, -0.0 too
        ends = np.abs(values[np.isfinite(values)])
        assert np.unique(_round9(ends)).tolist() == sorted({round(v, 9) for v in ends.tolist()}), name


def test_decode_matches_per_pose_reference():
    rng = np.random.default_rng(909)
    seen = {"cold cancel": 0, "history cancel": 0, "second-step cancel": 0, "uncovered first": 0, "clamped": 0}
    for name, robot in _reference_robots().items():
        names = ("LeftArm", "RightArm", "Head") if name in BUNDLED_ROBOTS else (
            "RightUpperArm", "RightForearm", "Head")
        for _ in range(200):
            score = _random_decode_score(rng, names)
            got = decode_score_detailed(score, robot)
            ref, states = _decode_per_pose(score, robot)
            _assert_same_decode(got, ref, states, robot)
            seen["uncovered first"] += int(not got.driven[0].all())
            seen["clamped"] += int(got.clamped.sum())
            # merged segments: which poses cancel at the first and second fold step
            covered = [s for s in states if "RightUpperArm" in s and "RightForearm" in s]
            for k, s in enumerate(covered):
                first = symbol_to_vector(s["RightUpperArm"]) + symbol_to_vector(s["RightForearm"])
                if np.linalg.norm(first) <= 1e-6:
                    seen["history cancel" if k else "cold cancel"] += 1
                elif name == "merge3" and "Head" in s:
                    second = first / np.linalg.norm(first) + symbol_to_vector(s["Head"])
                    seen["second-step cancel"] += int(np.linalg.norm(second) <= 1e-6)
    assert all(seen.values()), seen


def _folded_clip(rng):
    """A reach clip through poles and backward poses; in a few frames,
    frame 0 among them, the right wrist sits on the right shoulder, so the
    forearm points exactly opposite the upper arm."""
    poses = ["place_low", "place_high", "left_backward_middle", "right_backward_high", "backward_low",
             "forward_middle", "left_high", "right_low"]
    order = [poses[int(i)] for i in rng.permutation(len(poses))]
    seq = synth_motion({"pattern": "reach_sequence", "part": str(rng.choice(["right_arm", "left_arm", "head"])),
                        "poses": [[p, 0.4] for p in order]}, rate=30.0)
    positions = seq.positions.copy()
    folded = [0, *rng.choice(np.arange(1, len(seq)), size=6, replace=False).tolist()]
    positions[folded, JOINT_INDEX[JointName.WristRight]] = positions[folded, JOINT_INDEX[JointName.ShoulderRight]]
    return SkeletonSequence(seq.times, positions, seq.sample_rate)


def test_project_path_matches_per_frame_reference():
    rng = np.random.default_rng(910)
    robots = _reference_robots()
    poles = clamped = 0
    for _ in range(6):
        seq = _folded_clip(rng)
        n = len(seq)
        ranges = [(0, n - 1), (0, 0)] + [tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
                                         for _ in range(4)]
        for robot in robots.values():
            for a, b in ranges:
                got = project_path(seq, a, b, robot)
                ref = _project_per_frame(seq, a, b, robot)
                assert len(got) == len(ref)
                assert got.times.tolist() == [p.t for p in ref]
                assert sorted(got.joints) == sorted(robot.joint_names())
                assert _same_bits(got.samples, [[p.angles[j] for j in got.joints] for p in ref])
        bf = body_frame(seq.positions)
        for col in ("LeftArm", "RightArm", "Head"):
            d = segment_direction(seq.positions, COLUMN_DISTAL[col], bf)
            poles += int(np.sum(d[:, 0] ** 2 + d[:, 1] ** 2 < 1e-12))
            clamped += sum(_vector_to_joints(v, SEG_FRONTAL)[2] for v in d)
    # the clips reach the yaw = 0 pole rule and yaws beyond the frontal limits
    assert poles and clamped


def test_dict_build_carries_merge_history_across_a_clip(tmp_path, monkeypatch):
    """dict build projects each clip once, so a merged segment's fold history
    runs across all of the clip's transitions. With the right forearm folded
    back onto the upper arm in every frame, each frame cancels, and every
    path holds the direction of the clip's first key frame rather than that
    of its own first frame."""
    seq = synth_motion({"pattern": "reach_sequence", "part": "right_arm",
                        "poses": [[p, 0.6] for p in ("place_low", "forward_middle", "right_high", "left_high")]},
                       rate=30.0)
    positions = seq.positions.copy()
    positions[:, JOINT_INDEX[JointName.WristRight]] = positions[:, JOINT_INDEX[JointName.ShoulderRight]]
    seq = SkeletonSequence(seq.times, positions, seq.sample_rate)
    merged = [int(len(seq) * f) for f in (0.1, 0.35, 0.6, 0.85)]
    kfs = KeyFrameSet(per_part={}, merged=merged, params=EnergyParams())
    monkeypatch.setattr(cli._Run, "observe", lambda run, path: (seq, kfs))
    robot_path = tmp_path / "merger.json"
    robot_path.write_text(_MERGE_ROBOT)
    out = tmp_path / "dict.json"
    assert cli.main(["dict", "build", "clip.json", "--robot", str(robot_path), "-o", str(out)]) == 0

    robot = _merge_robot()
    columns = ("RightForearm", "RightUpperArm")
    whole = _project_per_frame(seq, merged[0], merged[-1], robot)
    states = [encode_pose_reference(seq.positions[i], columns) for i in merged]
    mdict = MotionDictionary()
    for k, (a, b) in enumerate(zip(merged, merged[1:])):
        dict_update(mdict, state_key(states[k], states[k + 1]),
                    KeyPoses.of(whole[a - merged[0]:b - merged[0] + 1]))
    assert out.read_text() == serialize_dictionary(mdict)
    first = whole[0].angles
    assert all(p.angles == first for p in whole)
    # restarting the history at each transition gives other paths
    assert out.read_text() != dict_build_per_transition([(seq, kfs)], robot, columns)


def test_symbol_table_is_vector_to_joints():
    for name in BUNDLED_ROBOTS:
        robot = load_robot(name)
        single = [(ref, seg) for ref, seg, sources in robot.segment_table if len(sources) == 1]
        assert sorted(robot.symbol_table) == sorted(ref for ref, _ in single)
        for ref, seg in single:
            yaw_pitch, clamped = robot.symbol_table[ref]
            assert yaw_pitch.shape == (len(VALID_LIMB_SYMBOLS) + 1, 2)
            for k, sym in enumerate(VALID_LIMB_SYMBOLS):
                yaw, pitch, flag = vector_to_joints(symbol_to_vector(sym), seg)
                assert yaw_pitch[k].tolist() == [yaw, pitch]
                assert clamped[k] == flag
                assert _vector_to_joints(symbol_to_vector(sym), seg) == (yaw, pitch, flag)
            # code -1: no symbol in force, the neutral pose
            assert yaw_pitch[-1].tolist() == [robot.neutral_angles[seg.yaw_joint], robot.neutral_angles[seg.pitch_joint]]
            assert not clamped[-1]


def test_load_robot_does_not_build_the_symbol_table():
    robot = load_robot("frontal_7dof")
    assert "symbol_table" not in vars(robot)
    decode_score(_full_score(S(D.Forward, L.Middle)), robot)
    assert "symbol_table" in vars(robot)


def test_joint_rows_match_vector_to_joints():
    rng = np.random.default_rng(912)
    random = rng.normal(size=(20000, 3))
    random /= np.linalg.norm(random, axis=1)[:, None]
    edges = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0], [7e-7, 7e-7, 1.0], [7.1e-7, 7.1e-7, 1.0],
             [1.0, -0.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
             [0.6, 0.8, 1.0 + 1e-15], [0.6, 0.8, -1.0 - 1e-15]]
    directions = np.vstack([random, edges, [symbol_to_vector(s) for s in VALID_LIMB_SYMBOLS]])
    segments = [SEG_FREE, SEG_FRONTAL, Segment("y", "p", (-45.0, 45.0), (-30.0, 30.0)),
                Segment("y", "p", (10.0, 40.0), (-90.0, -60.0)), Segment("y", "p", (-180.0, -170.0), (80.0, 90.0)),
                Segment("y", "p", (0.0, 0.0), (0.0, 0.0))]
    for seg in segments:
        yaw, pitch, clamped = robot_mod._joint_rows(directions, seg)
        want = [_vector_to_joints(v, seg) for v in directions]
        assert _same_bits(yaw, [w[0] for w in want])
        assert _same_bits(pitch, [w[1] for w in want])
        assert clamped.tolist() == [w[2] for w in want]
        # the scalar form is one row of the array form
        assert [vector_to_joints(v, seg) for v in directions[-40:]] == want[-40:]
