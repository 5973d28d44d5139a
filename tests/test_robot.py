import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from labanmotion.cli import main
from labanmotion.encoder import COLUMN_DISTAL, column_directions, direction_codes
from labanmotion.errors import MissingColumn, ValidationError
from labanmotion import robot as robot_mod
from labanmotion.laban import (
    CODE_VECTORS,
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
    save_score,
    states_at,
)
from labanmotion.robot import (
    BUNDLED_ROBOTS,
    KeyPoses,
    Segment,
    decode_score,
    decode_score_detailed,
    load_robot,
    parse_robot,
    project_path,
    validate_robot,
)
from labanmotion.skeleton import synth_motion

from conftest import states_brute_force, symbol_code

DATA = os.path.join(os.path.dirname(__file__), "data")

D = Direction
L = Level
S = LabanSymbol

SEG_FREE = Segment("yaw", "pitch", (-180.0, 180.0), (-90.0, 90.0))
SEG_FRONTAL = Segment("yaw", "pitch", (-90.0, 90.0), (-90.0, 90.0))


def _full_score(symbol: LabanSymbol) -> LabanScore:
    cols = tuple(
        LabanColumn(name, (Cell(SYMBOL_CODES[symbol], 0.0, 1.0),)) for name in ("LeftArm", "RightArm", "Head")
    )
    return LabanScore(columns=cols, total_duration=1.0)


def _vector(sym: LabanSymbol) -> np.ndarray:
    """The direction at the center of a symbol's band: its row of CODE_VECTORS."""
    return CODE_VECTORS[SYMBOL_CODES[sym]]


def _one_row(v, seg: Segment) -> tuple[float, float, bool]:
    """(yaw, pitch, clamped) of one direction on a segment: _joint_rows of a one-row array."""
    yaw, pitch, clamped = robot_mod._joint_rows(np.asarray(v, dtype=float).reshape(1, 3), seg)
    return yaw.item(), pitch.item(), clamped.item()


def test_symbol_vectors():
    assert np.allclose(_vector(S(D.Forward, L.Middle)), [1, 0, 0], atol=1e-12)
    assert np.allclose(_vector(S(D.Place, L.Low)), [0, 0, -1], atol=1e-12)
    c = math.cos(math.radians(45.0))
    assert np.allclose(_vector(S(D.Right, L.High)), [0, -c, c], atol=1e-9)


def test_symbol_place_middle_rejected():
    # (Place, Middle) has code -1, "no symbol", not one of the 26 codes whose
    # rows of CODE_VECTORS are directions; a decode holds its segment neutral
    assert SYMBOL_CODES[S(D.Place, L.Middle)] == -1
    assert S(D.Place, L.Middle) not in VALID_LIMB_SYMBOLS
    assert len(CODE_VECTORS) == len(VALID_LIMB_SYMBOLS) == 26


def test_symbol_roundtrip_all_26():
    for sym in VALID_LIMB_SYMBOLS:
        assert VALID_LIMB_SYMBOLS[direction_codes(_vector(sym))[0]] == sym


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
    out = reduce_columns({"RightArm": S(D.Forward, L.Middle)}, robot)
    assert set(out) == {"upper/0", "fore/0"}
    for v in out.values():
        assert np.allclose(v, [1, 0, 0], atol=1e-12)


def test_reduce_missing_column_raises():
    robot = _split_robot()
    with pytest.raises(MissingColumn):
        reduce_columns({"LeftArm": S(D.Forward, L.Middle)}, robot)


def test_vector_to_joints_forward():
    yaw, pitch, clamped = _one_row(np.array([1.0, 0, 0]), SEG_FRONTAL)
    assert (yaw, pitch, clamped) == (0.0, 0.0, False)


def test_vector_to_joints_backward_clamps_to_lower_tie():
    yaw, pitch, clamped = _one_row(np.array([-1.0, 0, 0]), SEG_FRONTAL)
    assert clamped is True
    assert yaw == -90.0  # equidistant from both limits: lower wins
    assert pitch == 0.0


def test_vector_to_joints_nearest_limit():
    v = _vector(S(D.LeftBackward, L.Middle))  # azimuth +135
    yaw, _, clamped = _one_row(v, SEG_FRONTAL)
    assert clamped is True
    assert yaw == 90.0


def test_vector_to_joints_pole_yaw_zero():
    yaw, pitch, clamped = _one_row(np.array([0.0, 0, 1.0]), SEG_FRONTAL)
    assert yaw == 0.0
    assert pitch == 90.0
    assert clamped is False


def test_direction_vector_inverts_vector_to_joints():
    for yaw, pitch in ((0, 0), (45, 30), (-90, -45), (120, 80)):
        v = direction_vector(yaw, pitch)
        seg = SEG_FREE
        y2, p2, clamped = _one_row(v, seg)
        assert not clamped
        assert y2 == pytest.approx(yaw, abs=1e-9)
        assert p2 == pytest.approx(pitch, abs=1e-9)


def test_bundled_robots_load_and_differ():
    r7 = load_robot("frontal_7dof")
    r9 = load_robot("lab_9dof")
    assert len(r7.joint_names()) == 7
    assert len(r9.joint_names()) == 9
    assert set(r7.column_map) == set(r9.column_map) == {"LeftArm", "RightArm", "Head"}


def _angles(poses, i):
    """Row i of a ``KeyPoses``' samples by joint name."""
    return dict(zip(poses.joints, poses.samples[i].tolist()))


def _segment(robot, ref):
    """The index of segment ``ref`` in ``robot.segment_table``, the columns of
    a decode's ``driven`` and ``clamped``, and the segment itself."""
    return next((s, seg) for s, (r, seg, _) in enumerate(robot.segment_table) if r == ref)


def test_decode_single_cell_forward():
    robot = load_robot("frontal_7dof")
    score = _full_score(S(D.Forward, L.Middle))
    poses = decode_score_detailed(score, robot).poses
    assert poses.times.tolist() == [1.0]
    angles = _angles(poses, 0)
    assert angles["r_shoulder_yaw"] == pytest.approx(0.0, abs=1e-12)
    assert angles["r_shoulder_pitch"] == pytest.approx(0.0, abs=1e-12)
    assert angles["r_wrist_roll"] == 0.0
    # all joints within their declared limits
    for chain in robot.chains:
        for seg in chain.segments:
            assert seg.yaw_limits[0] <= angles[seg.yaw_joint] <= seg.yaw_limits[1]
            assert seg.pitch_limits[0] <= angles[seg.pitch_joint] <= seg.pitch_limits[1]


def test_decode_uncovered_column_neutral():
    # head coverage starts later; at the first boundary its segment is neutral
    cols = (
        LabanColumn("RightArm", (Cell(symbol_code(D.Forward, L.Middle), 0.0, 1.0),)),
        LabanColumn("LeftArm", (Cell(symbol_code(D.Place, L.Low), 0.0, 1.0),)),
        LabanColumn("Head", (Cell(symbol_code(D.Forward, L.Middle), 1.0, 1.0),)),
    )
    score = LabanScore(columns=cols, total_duration=2.0)
    robot = load_robot("frontal_7dof")
    detailed = decode_score_detailed(score, robot)
    assert detailed.poses.times.tolist() == [1.0, 2.0]
    head, _ = _segment(robot, "head/0")
    assert detailed.driven[:, head].tolist() == [False, True]
    first = _angles(detailed.poses, 0)
    assert first["head_yaw"] == 0.0
    assert first["head_pitch"] == 0.0
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
    for i, t in enumerate(detailed.poses.times.tolist()):
        states = states_at(score, [min(t, score.total_duration)])[0]
        assert detailed.codes[i].tolist() == [states[names.index(col)] for col in robot.mapped_columns]


def test_decode_missing_mapped_column():
    cols = (LabanColumn("RightArm", (Cell(symbol_code(D.Forward, L.Middle), 0.0, 1.0),)),)
    score = LabanScore(columns=cols, total_duration=1.0)
    robot = load_robot("frontal_7dof")
    with pytest.raises(MissingColumn):
        decode_score_detailed(score, robot)


def test_decode_rejects_invalid_score():
    score = LabanScore(columns=(), total_duration=1.0)
    with pytest.raises(ValidationError):
        decode_score_detailed(score, load_robot("frontal_7dof"))


def test_decode_golden_four_key_times():
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    robot = load_robot("frontal_7dof")
    poses = decode_score_detailed(score, robot).poses
    assert poses.times.tolist() == [0.5, 1.2, 1.9, 2.6]
    # hand-computed angles for the RightArm column symbols
    expect = [(0.0, -90.0), (0.0, 0.0), (-90.0, 45.0), (0.0, 90.0)]
    for i, (yaw, pitch) in enumerate(expect):
        assert _angles(poses, i)["r_shoulder_yaw"] == pytest.approx(yaw, abs=1e-9)
        assert _angles(poses, i)["r_shoulder_pitch"] == pytest.approx(pitch, abs=1e-9)


def test_decode_deterministic():
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    robot = load_robot("lab_9dof")
    a = decode_score_detailed(score, robot).poses
    b = decode_score_detailed(score, robot).poses
    assert a.joints == b.joints and a.samples.tolist() == b.samples.tolist()
    assert a.times.tolist() == b.times.tolist()


def test_hardware_independence_roundtrip():
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    times = None
    for name in BUNDLED_ROBOTS:
        robot = load_robot(name)
        detailed = decode_score_detailed(score, robot)
        ts = detailed.poses.times.tolist()
        if times is None:
            times = ts
        else:
            assert ts == times  # identical pose times across robots
        for s, (ref, seg, col) in enumerate(robot.segment_table):
            codes = detailed.codes[:, detailed.columns.index(col)].tolist()
            for i in np.flatnonzero(detailed.driven[:, s] & ~detailed.clamped[:, s]).tolist():
                angles = _angles(detailed.poses, i)
                back = direction_codes(direction_vector(angles[seg.yaw_joint], angles[seg.pitch_joint]))[0]
                assert VALID_LIMB_SYMBOLS[back] == VALID_LIMB_SYMBOLS[codes[i]], (name, ref, i)


def test_boundary_gesture_all_symbols():
    robot = load_robot("frontal_7dof")
    outside = {D.Backward, D.LeftBackward, D.RightBackward}
    for sym in VALID_LIMB_SYMBOLS:
        detailed = decode_score_detailed(_full_score(sym), robot)
        s, seg = _segment(robot, "right_arm/0")
        angles, clamped = _angles(detailed.poses, 0), detailed.clamped[0, s].tolist()
        yaw, pitch = angles[seg.yaw_joint], angles[seg.pitch_joint]
        assert seg.yaw_limits[0] <= yaw <= seg.yaw_limits[1]
        assert seg.pitch_limits[0] <= pitch <= seg.pitch_limits[1]
        if sym.direction in outside:
            assert clamped is True
            assert abs(yaw) == 90.0  # realized at a limit boundary
        else:
            assert clamped is False


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
    # two chains of one name would share their segment refs, so one column entry would drive both
    with pytest.raises(ValidationError, match=r"^chain name arm used twice$"):
        parse_robot(
            """{"name": "bad",
                "chains": [{"name": "arm", "segments": [{"yaw_joint": "y0", "pitch_joint": "p0",
                                                          "yaw_limits": [-90, 90], "pitch_limits": [-90, 90]}]},
                           {"name": "arm", "segments": [{"yaw_joint": "y1", "pitch_joint": "p1",
                                                          "yaw_limits": [-90, 90], "pitch_limits": [-90, 90]}]}],
                "column_map": {"RightArm": ["arm/0"]}}"""
        )
    # a segment takes its direction from one column at most
    with pytest.raises(ValidationError, match=r"^segment arm/0 fed by 2 columns \(a segment takes one\)$"):
        parse_robot(
            """{"name": "bad",
                "chains": [{"name": "arm", "segments": [{"yaw_joint": "y", "pitch_joint": "p",
                                                          "yaw_limits": [-90, 90], "pitch_limits": [-90, 90]}]}],
                "column_map": {"RightUpperArm": ["arm/0"], "RightForearm": ["arm/0"]}}"""
        )


def test_validate_robot_checks_column_map_keys_by_the_score_column_rules():
    frontal = load_robot("frontal_7dof")

    def problems(column_map):
        return validate_robot(robot_mod.RobotDescription(frontal.name, frontal.chains, column_map))

    assert problems(frontal.column_map) == []
    # a split layout on one side and a whole arm on the other is allowed, as in a score
    assert problems({"LeftArm": ("left_arm/0",), "RightUpperArm": ("right_arm/0",),
                     "RightForearm": ("head/0",)}) == []
    assert problems({"RightArms": ("right_arm/0",), "Head": ("head/0",), "Neck": ("head/0",)}) == [
        "column_map: RightArms: unknown-column: not a known column name",
        "column_map: Neck: unknown-column: not a known column name",
        "segment head/0 fed by 2 columns (a segment takes one)",
    ]
    assert problems({"LeftArm": ("left_arm/0",), "LeftForearm": ("left_arm/0",), "RightArm": ("right_arm/0",),
                     "RightUpperArm": ("right_arm/0",), "RightForearm": ("head/0",)}) == [
        "column_map: LeftArm: arm-exclusive: LeftArm cannot coexist with LeftForearm",
        "column_map: RightArm: arm-exclusive: RightArm cannot coexist with RightUpperArm, RightForearm",
        "segment left_arm/0 fed by 2 columns (a segment takes one)",
        "segment right_arm/0 fed by 2 columns (a segment takes one)",
    ]
    # the column rules come first, then the segment rules
    assert problems({"Tail": ("tail/0",)}) == ["column_map: Tail: unknown-column: not a known column name",
                                               "column Tail references unknown segment tail/0"]


def test_decode_split_robot_copies_column():
    robot = _split_robot()
    cols = (LabanColumn("RightArm", (Cell(symbol_code(D.Left, L.High), 0.0, 1.0),)),)
    score = LabanScore(columns=cols, total_duration=1.0)
    angles = _angles(decode_score_detailed(score, robot).poses, 0)
    assert angles["u_yaw"] == pytest.approx(90.0, abs=1e-9)
    assert angles["f_yaw"] == pytest.approx(90.0, abs=1e-9)
    assert angles["u_pitch"] == pytest.approx(45.0, abs=1e-9)
    assert angles["f_pitch"] == pytest.approx(45.0, abs=1e-9)


def test_project_path_continuous_directions():
    from labanmotion.skeleton import synth_motion

    seq = synth_motion(
        {"pattern": "reach_sequence", "part": "right_arm",
         "poses": [["place_low", 0.6], ["forward_middle", 0.5]]},
        rate=30.0,
    )
    robot = load_robot("frontal_7dof")
    start = _angles(project_path(seq, 0, 0, robot), 0)
    end = _angles(project_path(seq, len(seq) - 1, len(seq) - 1, robot), 0)
    assert start["r_shoulder_pitch"] == pytest.approx(-90.0, abs=1e-6)
    assert end["r_shoulder_pitch"] == pytest.approx(0.0, abs=1e-6)
    # mid-move angles are intermediate, not quantized to 45-degree steps
    mid = _angles(project_path(seq, len(seq) // 2, len(seq) // 2, robot), 0)
    assert -90.0 < mid["r_shoulder_pitch"] < 0.0


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


def reduce_vectors(vectors, robot):
    """Per-segment direction from per-column directions: each segment
    receives its column's vector unchanged, so a split copies it. Segments
    whose column is absent or that no column feeds are left out."""
    return {ref: vectors[col] for ref, _, col in robot.segment_table if col in vectors}


def reduce_columns(symbols, robot):
    """Symbol form of :func:`reduce_vectors`; a missing column raises."""
    for ref, _, col in robot.segment_table:
        if col is not None and col not in symbols:
            raise MissingColumn(ref, col)
    vectors = {col: _vector(sym) for col, sym in symbols.items()}
    return reduce_vectors(vectors, robot)


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
    times = sorted({round(cell.end * 1e6) / 1e6 for col in score.columns for cell in col.cells})
    states = [{col: VALID_LIMB_SYMBOLS[code] for col, code in states_brute_force(score, t).items()}
              for t in (min(t, score.total_duration) for t in times)]
    out = []
    for t, symbols in zip(times, states):
        vectors = {
            col: _vector(sym)
            for col, sym in symbols.items()
            if col in robot.column_map
        }
        angles, driven = _joint_angles(reduce_vectors(vectors, robot), robot)
        detail = {}
        for ref, seg, col in robot.segment_table:
            if ref in driven:
                yaw, pitch, clamped = driven[ref]
                detail[ref] = SimpleNamespace(yaw=yaw, pitch=pitch, clamped=clamped, driven=True, symbol=symbols[col])
            else:
                yaw, pitch = angles[seg.yaw_joint], angles[seg.pitch_joint]
                detail[ref] = SimpleNamespace(yaw=yaw, pitch=pitch, clamped=False, driven=False, symbol=None)
        out.append(SimpleNamespace(t=t, pose=SimpleNamespace(t=t, angles=angles), segments=detail))
    return out, states


def _project_per_frame(seq, start, end, robot):
    """Reference projection: one reduce and one angle dict per frame."""
    positions = seq.positions[start:end + 1]
    columns = tuple(col for col in robot.column_map if col in COLUMN_DISTAL)
    vectors = dict(zip(columns, column_directions(positions, columns).transpose(1, 0, 2)))
    joints = tuple(sorted(robot.neutral_angles))
    rows = []
    for k in range(len(positions)):
        angles = _joint_angles(reduce_vectors({col: v[k] for col, v in vectors.items()}, robot), robot)[0]
        rows.append([angles[j] for j in joints])
    return KeyPoses(seq.times[start:end + 1], joints, np.reshape(rows, (len(rows), len(joints))))


def _split3_robot():
    """Upper arm, forearm and head on their own segments; the forearm also
    drives a narrow wrist, and a tail segment that no column feeds holds its
    neutral pose. Roll and fixed joints have nonzero neutrals."""
    return parse_robot(
        """
        {"name": "split3",
         "chains": [{"name": "arm", "segments": [
            {"yaw_joint": "u_yaw", "pitch_joint": "u_pitch", "yaw_limits": [-120, 120],
             "pitch_limits": [-60, 80], "roll_joint": "u_roll", "roll_limits": [10, 40]},
            {"yaw_joint": "f_yaw", "pitch_joint": "f_pitch", "yaw_limits": [-180, 180],
             "pitch_limits": [-90, 90]}]},
                    {"name": "wrist", "segments": [
            {"yaw_joint": "w_yaw", "pitch_joint": "w_pitch",
             "yaw_limits": [-45, 45], "pitch_limits": [-30, 30]}]},
                    {"name": "head", "segments": [
            {"yaw_joint": "h_yaw", "pitch_joint": "h_pitch", "yaw_limits": [-90, 90],
             "pitch_limits": [-90, 90]}]},
                    {"name": "tail", "segments": [
            {"yaw_joint": "t_yaw", "pitch_joint": "t_pitch", "yaw_limits": [15, 60],
             "pitch_limits": [-90, -20]}]}],
         "column_map": {"RightUpperArm": ["arm/0"], "RightForearm": ["arm/1", "wrist/0"], "Head": ["head/0"]},
         "fixed_joints": [{"name": "base", "limits": [-30, -5]}]}
        """
    )


def _reference_robots():
    return {"frontal_7dof": load_robot("frontal_7dof"), "lab_9dof": load_robot("lab_9dof"),
            "split": _split_robot(), "split3": _split3_robot()}


# opposed pairs (Forward/Backward, Left/Right, Place High/Low, two diagonals)
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
            cells.append(Cell(SYMBOL_CODES[pool[int(rng.integers(0, len(pool)))]], t / 4.0, dur / 4.0))
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
    assert got.columns == robot.mapped_columns
    assert got.codes.tolist() == [[SYMBOL_CODES[s[col]] if col in s else -1 for col in got.columns] for s in states]
    # a driven segment's symbol is the code in force in its column
    codes = got.codes.tolist()
    symbols = [[VALID_LIMB_SYMBOLS[codes[i][got.columns.index(col)]] if got.driven[i, s] else None
                for s, (_, _, col) in enumerate(robot.segment_table)] for i in range(len(ref))]
    assert symbols == [[d.segments[r].symbol for r in refs] for d in ref]


def test_boundary_times_are_cell_ends_on_the_microsecond_grid():
    """decode's key-pose times are the distinct cell ends rounded to whole
    microseconds, the score file's resolution. On scores built from 6-decimal
    starts and durations up to 1e6 s, whose ends start + duration drift off
    that grid, this is ``round(end, 9)`` bit for bit; ends too large for a
    microsecond step decode as they are, with no RuntimeWarning."""
    rng = np.random.default_rng(2024)
    robot = load_robot("frontal_7dof")
    code = symbol_code(D.Forward, L.Middle)
    drifted = merged = 0
    for _ in range(300):
        # every cell starts and ends on a point of one shared 6-decimal grid,
        # with a grid point between cells, so ends meet across columns
        grid = np.unique(np.round(rng.uniform(0.0, 10.0 ** rng.uniform(0.0, 6.0), 40), 6))
        columns = []
        for name in ("LeftArm", "RightArm", "Head"):
            points = np.sort(rng.choice(grid, size=2 * int(rng.integers(1, len(grid) // 2 + 1)), replace=False))
            cells = (Cell(code, a, round(b - a, 6)) for a, b in points.reshape(-1, 2).tolist())
            columns.append(LabanColumn(name, tuple(cells)))
        ends = [cell.end for col in columns for cell in col.cells]
        times = decode_score_detailed(LabanScore(tuple(columns), float(grid[-1])), robot).poses.times.tolist()
        assert times == sorted({round(e, 9) for e in ends})
        drifted += sum(e != round(e, 6) for e in ends)
        merged += len(set(ends)) - len(times)
    assert drifted and merged, (drifted, merged)
    # 2**52 µs (about 52 days) and more: kept as they are
    cols = tuple(LabanColumn(name, (Cell(code, 0.0, end),))
                 for name, end in (("LeftArm", 1.0), ("RightArm", 1e300), ("Head", 1.7e308)))
    assert decode_score_detailed(LabanScore(cols, 1.7e308), robot).poses.times.tolist() == [1.0, 1e300, 1.7e308]


def test_long_score_shares_its_last_boundary(tmp_path, capsys):
    """Past 2**52 / 1e9 s (about 52 days) a nanosecond step no longer merges
    float drift: LeftArm's 4747982.066619 + 3.019996 ends one float above the
    other columns' 4747985.086615. On the microsecond grid the three columns
    share that boundary: two key poses, three segments compared at each."""
    end = 4747985.086615
    code = symbol_code(D.Forward, L.Middle)
    left = (Cell(symbol_code(D.Place, L.Low), 0.0, 4747982.066619), Cell(code, 4747982.066619, 3.019996))
    score = LabanScore((LabanColumn("LeftArm", left), LabanColumn("RightArm", (Cell(code, 0.0, end),)),
                        LabanColumn("Head", (Cell(code, 0.0, end),))), end)
    assert left[1].end != end
    assert decode_score_detailed(score, load_robot("frontal_7dof")).poses.times.tolist() == [4747982.066619, end]
    path = str(tmp_path / "long.json")
    save_score(score, path)
    assert main(["roundtrip", path, "--robot", "frontal_7dof"]) == 0
    assert "cells compared: 6, matched: 6, mismatched: 0" in capsys.readouterr().out


@pytest.mark.parametrize("other, want", [(1.0000003, [1.0]), (1.000001, [1.0, 1.000001])],
                         ids=["within-a-microsecond", "a-microsecond-apart"])
def test_ends_share_a_key_pose_when_they_round_to_one_microsecond(other, want):
    """Columns ending at 1.0 and 1.0000003 share one key pose, as in a score
    file, which holds times to the microsecond; ends 1 µs apart give two."""
    code = symbol_code(D.Forward, L.Middle)
    cols = tuple(LabanColumn(name, (Cell(code, 0.0, end),))
                 for name, end in (("LeftArm", 1.0), ("RightArm", other), ("Head", 1.0)))
    assert decode_score_detailed(LabanScore(cols, other), load_robot("frontal_7dof")).poses.times.tolist() == want


def test_decode_matches_per_pose_reference():
    rng = np.random.default_rng(909)
    seen = {"uncovered first": 0, "clamped": 0}
    for name, robot in _reference_robots().items():
        # the split robot maps RightArm alone, so it also ignores two of the columns
        names = ("RightUpperArm", "RightForearm", "Head") if name == "split3" else ("LeftArm", "RightArm", "Head")
        for _ in range(200):
            score = _random_decode_score(rng, names)
            got = decode_score_detailed(score, robot)
            ref, states = _decode_per_pose(score, robot)
            _assert_same_decode(got, ref, states, robot)
            seen["uncovered first"] += int(not got.driven[0].all())
            seen["clamped"] += int(got.clamped.sum())
    assert all(seen.values()), seen


def test_per_pose_views_hold_the_decode_arrays():
    """The per-pose reads the benchmark makes: each ``decode_score`` item's
    ``t`` and ``angles``, and each ``DecodedScore`` item's per-segment
    ``driven`` and ``clamped``, are the decode's arrays as Python floats and
    bools; items compare by value and are unhashable."""
    rng = np.random.default_rng(911)
    seen = set()
    for name, robot in _reference_robots().items():
        names = ("RightUpperArm", "RightForearm", "Head") if name == "split3" else ("LeftArm", "RightArm", "Head")
        refs = [ref for ref, _, _ in robot.segment_table]
        for _ in range(20):
            score = _random_decode_score(rng, names)
            poses, detailed = decode_score(score, robot), decode_score_detailed(score, robot)
            assert len(list(poses)) == len(list(detailed)) == len(detailed.poses.times) > 0
            for i, (pose, item) in enumerate(zip(poses, detailed)):
                assert type(pose.t) is float and pose.t == detailed.poses.times[i]
                assert pose.angles == dict(zip(detailed.poses.joints, detailed.poses.samples[i].tolist()))
                assert all(type(angle) is float for angle in pose.angles.values())
                assert item.t == pose.t and item.pose == pose
                flags = [(item.segments[ref].driven, item.segments[ref].clamped) for ref in refs]
                assert flags == list(zip(detailed.driven[i].tolist(), detailed.clamped[i].tolist()))
                assert all(type(flag) is bool for pair in flags for flag in pair)
                seen.update(flags)
            with pytest.raises(TypeError):
                hash(poses[0])
            with pytest.raises(TypeError):
                hash(detailed[0])
    assert seen == {(False, False), (True, False), (True, True)}


def _reach_clip(rng):
    """A reach clip through poles and backward poses, in a random order."""
    poses = ["place_low", "place_high", "left_backward_middle", "right_backward_high", "backward_low",
             "forward_middle", "left_high", "right_low"]
    order = [poses[int(i)] for i in rng.permutation(len(poses))]
    return synth_motion({"pattern": "reach_sequence", "part": str(rng.choice(["right_arm", "left_arm", "head"])),
                         "poses": [[p, 0.4] for p in order]}, rate=30.0)


def test_project_path_matches_per_frame_reference():
    rng = np.random.default_rng(910)
    robots = _reference_robots()
    poles = clamped = 0
    for _ in range(6):
        seq = _reach_clip(rng)
        n = len(seq)
        ranges = [(0, n - 1), (0, 0)] + [tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
                                         for _ in range(4)]
        for robot in robots.values():
            for a, b in ranges:
                got = project_path(seq, a, b, robot)
                ref = _project_per_frame(seq, a, b, robot)
                assert len(got) == len(ref)
                assert got.times.tolist() == ref.times.tolist()
                assert got.joints == ref.joints and sorted(got.joints) == sorted(robot.joint_names())
                assert _same_bits(got.samples, ref.samples)
        for d in column_directions(seq.positions, ("LeftArm", "RightArm", "Head")).transpose(1, 0, 2):
            poles += int(np.sum(d[:, 0] ** 2 + d[:, 1] ** 2 < 1e-12))
            clamped += sum(_vector_to_joints(v, SEG_FRONTAL)[2] for v in d)
    # the clips reach the yaw = 0 pole rule and yaws beyond the frontal limits
    assert poles and clamped


def test_symbol_table_is_vector_to_joints():
    for name in BUNDLED_ROBOTS:
        robot = load_robot(name)
        assert list(robot.symbol_table) == [ref for ref, _, _ in robot.segment_table]
        for ref, seg, _ in robot.segment_table:
            yaw_pitch, clamped = robot.symbol_table[ref]
            assert yaw_pitch.shape == (len(VALID_LIMB_SYMBOLS) + 1, 2)
            for k, sym in enumerate(VALID_LIMB_SYMBOLS):
                yaw, pitch, flag = _one_row(_vector(sym), seg)
                assert yaw_pitch[k].tolist() == [yaw, pitch]
                assert clamped[k] == flag
                assert _vector_to_joints(_vector(sym), seg) == (yaw, pitch, flag)
            # code -1: no symbol in force, the neutral pose
            assert yaw_pitch[-1].tolist() == [robot.neutral_angles[seg.yaw_joint], robot.neutral_angles[seg.pitch_joint]]
            assert not clamped[-1]


def test_load_robot_does_not_build_the_symbol_table():
    robot = load_robot("frontal_7dof")
    assert "symbol_table" not in vars(robot)
    decode_score_detailed(_full_score(S(D.Forward, L.Middle)), robot)
    assert "symbol_table" in vars(robot)


def test_joint_rows_match_vector_to_joints():
    rng = np.random.default_rng(912)
    random = rng.normal(size=(20000, 3))
    random /= np.linalg.norm(random, axis=1)[:, None]
    edges = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0], [7e-7, 7e-7, 1.0], [7.1e-7, 7.1e-7, 1.0],
             [1.0, -0.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
             [0.6, 0.8, 1.0 + 1e-15], [0.6, 0.8, -1.0 - 1e-15]]
    directions = np.vstack([random, edges, [_vector(s) for s in VALID_LIMB_SYMBOLS]])
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
        assert [_one_row(v, seg) for v in directions[-40:]] == want[-40:]
