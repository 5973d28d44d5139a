import math

import numpy as np
import pytest

from labanmotion import laban
from labanmotion.encoder import (
    ARM_COLUMNS,
    AZIMUTH_SECTORS,
    COLUMN_DISTAL,
    SPLIT_COLUMNS,
    _ELEVATION_BANDS,
    _bands,
    _check_unit,
    _sectors,
    column_directions,
    direction_codes,
    encode_pose,
    encode_poses,
    encode_sequence,
)
from labanmotion.errors import BadInput, DegeneratePose, LabanMotionError, NoKeyFrames
from labanmotion.keyframe import EnergyParams, KeyFrameSet, extract_keyframes
from labanmotion.laban import CODE_VECTORS, SYMBOL_CODES, VALID_LIMB_SYMBOLS, Direction, LabanSymbol, Level, validate
from labanmotion.skeleton import (
    JOINT_INDEX,
    JointName,
    SkeletonSequence,
    _pose_positions,
    body_frame,
    pose_vector,
    synth_motion,
)

from conftest import (band_reference, code_reference, encode_pose_reference, random_rotation, rotate_about,
                      sector_reference, symbol_code, transform_sequence)

D = Direction
L = Level


def _pose(right_arm="place_low", left_arm="place_low", head="place_high"):
    """(12, 3) standing pose with the arms and head along named directions."""
    return _pose_positions(
        {"left": pose_vector(left_arm), "right": pose_vector(right_arm), "head": pose_vector(head)}
    )


def _right_arm(pose: np.ndarray) -> np.ndarray:
    """The RightArm column's direction (wrist relative to elbow) in one (12, 3) pose."""
    return column_directions(pose[None], ("RightArm",))[0, 0]


def test_segment_direction_wrist_above_elbow():
    v = _right_arm(_pose(right_arm="place_high"))
    assert np.allclose(v, [0, 0, 1], atol=1e-9)


def test_segment_direction_forward():
    v = _right_arm(_pose(right_arm="forward_middle"))
    assert np.allclose(v, [1, 0, 0], atol=1e-9)


def test_segment_direction_world_invariant(rng):
    pose = _pose(right_arm="left_forward_high")
    v0 = _right_arm(pose)
    for _ in range(10):
        R = random_rotation(rng)
        t = rng.normal(size=3)
        moved = pose @ R.T + t
        v1 = _right_arm(moved)
        assert np.max(np.abs(v1 - v0)) < 1e-6


def test_segment_direction_degenerate():
    pose = _pose()
    pose[JOINT_INDEX[JointName.WristRight]] = pose[JOINT_INDEX[JointName.ElbowRight]]
    with pytest.raises(DegeneratePose, match="^column RightArm: zero-length segment at WristRight$"):
        _right_arm(pose)



@pytest.mark.parametrize("rotated", [False, True])
def test_batched_body_frame_and_directions_match_per_frame(rng, rotated):
    seq = synth_motion(
        {"pattern": "reach_sequence", "part": "left_arm",
         "poses": [["place_low", 0.3], ["left_forward_high", 0.3], ["right_middle", 0.3],
                   ["backward_low", 0.3]]},
        rate=30.0,
    )
    if rotated:
        seq = transform_sequence(seq, random_rotation(rng), rng.normal(size=3))
    axes = body_frame(seq.positions)
    assert axes.shape == (len(seq), 3, 3)
    assert np.array_equal(axes[:, 0], np.cross(axes[:, 1], axes[:, 2]))
    columns = ("LeftArm", "LeftUpperArm", "RightArm", "Head")
    batched = column_directions(seq.positions, columns)
    for i in range(len(seq)):
        assert np.array_equal(axes[i], body_frame(seq.positions[i]))
        assert np.array_equal(batched[i], column_directions(seq.positions[i:i + 1], columns)[0])


def test_batched_degenerate_pose_raises():
    seq = synth_motion({"pattern": "static", "duration": 0.5}, rate=30.0)
    J = JOINT_INDEX
    positions = seq.positions.copy()
    positions[7, J[JointName.ShoulderLeft]] = positions[7, J[JointName.ShoulderRight]]
    with pytest.raises(DegeneratePose, match="zero shoulder span"):
        body_frame(positions)
    positions = seq.positions.copy()
    positions[3, J[JointName.WristRight]] = positions[3, J[JointName.ElbowRight]]
    with pytest.raises(DegeneratePose, match="WristRight"):
        column_directions(positions, ("RightArm",))

def _symbols(directions) -> list[LabanSymbol]:
    """The symbol of each of (n, 3) directions, from their codes."""
    return [VALID_LIMB_SYMBOLS[code] for code in direction_codes(np.array(directions, dtype=float))]


def test_digitize_axes():
    axes = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
    assert _symbols(axes) == [LabanSymbol(D.Place, L.High), LabanSymbol(D.Place, L.Low),
                              LabanSymbol(D.Forward, L.Middle), LabanSymbol(D.Backward, L.Middle),
                              LabanSymbol(D.Left, L.Middle), LabanSymbol(D.Right, L.Middle)]


def test_digitize_diagonal_high():
    c = math.cos(math.radians(45.0))
    v = np.array([c * c, c * c, math.sin(math.radians(45.0))])
    assert _symbols([v]) == [LabanSymbol(D.LeftForward, L.High)]


def test_band_boundaries_exact():
    # elevation: caps closed at +/-67.5; High/Low own their 22.5 boundary
    bands = _bands(np.array([67.5, -67.5, 22.5, -22.5, 22.4999, -22.4999]))
    assert [_ELEVATION_BANDS[b] for b in bands] == [LabanSymbol(D.Place, L.High), LabanSymbol(D.Place, L.Low),
                                                    L.High, L.Low, L.Middle, L.Middle]
    # azimuth sectors are lower-closed: [c - 22.5, c + 22.5)
    sectors = _sectors(np.array([-22.5, 22.5, 90.0, 157.5, 180.0, -180.0, -157.5, -90.0]))
    assert [AZIMUTH_SECTORS[k] for k in sectors] == [D.Forward, D.LeftForward, D.Left, D.Backward, D.Backward,
                                                     D.Backward, D.RightBackward, D.Right]


def test_digitize_rejects_non_unit():
    with pytest.raises(BadInput):
        _check_unit(np.array([2.0, 0.0, 0.0]))
    # NaN fails the unit check rather than passing it as every comparison would
    for v in ([math.nan, 0.0, 0.0], [0.0, 0.0, math.nan]):
        with pytest.raises(BadInput, match="nan"):
            _check_unit(np.array(v))


def test_classify_azimuth_has_no_sector_for_a_non_finite_angle():
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _sectors(np.array([angle]))
    assert AZIMUTH_SECTORS[_sectors(np.array([1e300]))[0]] == D.Forward  # finite, however large
    assert _ELEVATION_BANDS[_bands(np.array([math.nan]))[0]] == L.Middle  # as every band comparison is False


def test_direction_codes_match_a_scalar_band_and_sector_reference():
    rng = np.random.default_rng(2024)
    random = rng.normal(size=(200_000, 3))
    random /= np.linalg.norm(random, axis=1)[:, None]
    # every band and sector edge, and the angles 1e-12 to either side of it
    elevations = [e + d for e in (-90.0, -67.5, -22.5, 0.0, 22.5, 67.5, 90.0) for d in (-1e-12, 0.0, 1e-12)]
    azimuths = [a + d for a in _EDGE_AZIMUTHS + (-180.0, 0.0) for d in (-1e-12, 0.0, 1e-12)]
    edges = [laban.direction_vector(a, e) for e in elevations for a in azimuths]
    directions = np.vstack([random, edges, laban.CODE_VECTORS])
    assert direction_codes(directions).tolist() == [code_reference(*v) for v in directions.tolist()]
    assert direction_codes(laban.CODE_VECTORS).tolist() == list(range(26))
    # the bands and sectors of angles, edges and far-out values included
    elevations += [-45.0, 45.0, 22.4999, -22.4999]
    assert _bands(np.array(elevations)).tolist() == [band_reference(e) for e in elevations]
    azimuths += [1e-300, -1e-300, 359.0, -359.0, 1e6]
    assert _sectors(np.array(azimuths)).tolist() == [sector_reference(a) for a in azimuths]


def test_column_directions_is_the_one_path_of_encode_poses_and_project_path():
    """encode_poses quantizes the bits column_directions gives, and
    project_path turns the same bits into joint angles."""
    from labanmotion import robot as robot_mod

    assert robot_mod.column_directions is column_directions
    seq = synth_motion({"pattern": "reach_sequence", "part": "right_arm",
                        "poses": [("place_low", 0.6), ("right_forward_high", 0.6), ("left_middle", 0.6)]})
    for name in robot_mod.BUNDLED_ROBOTS:
        robot = robot_mod.load_robot(name)
        columns = robot.mapped_columns
        directions = column_directions(seq.positions, columns)
        assert directions.shape == (len(seq), len(columns), 3)
        assert encode_poses(seq.positions, columns).tolist() == \
            direction_codes(directions).reshape(len(seq), len(columns)).tolist()
        projected = robot_mod.project_path(seq, 0, len(seq) - 1, robot)
        for _, seg, col in robot.segment_table:
            assert col is not None  # the bundled robots map every segment
            yaw, pitch, _ = robot_mod._joint_rows(directions[:, columns.index(col)], seg)
            for joint, want in ((seg.yaw_joint, yaw), (seg.pitch_joint, pitch)):
                got = projected.samples[:, projected.joints.index(joint)]
                assert got.tobytes() == want.tobytes()


def test_column_directions_rejects_a_non_finite_direction():
    positions = _edge_poses(np.random.default_rng(5), 3)
    positions[1, JOINT_INDEX[JointName.WristRight]] = [0.0, 0.0, -1.7e308]
    positions[1, JOINT_INDEX[JointName.ElbowRight]] = [0.0, 0.0, 1.7e308]
    assert column_directions(positions, ("LeftArm", "Head")).shape == (3, 2, 3)
    with pytest.raises(BadInput, match=r"\|v\| = nan"):
        column_directions(positions, ARM_COLUMNS)
    with pytest.raises(BadInput, match=r"\|v\| = nan"):
        encode_poses(positions, ARM_COLUMNS)


def test_digitize_total_on_random_sphere(rng):
    directions = []
    for _ in range(500):
        v = rng.normal(size=3)
        directions.append(v / np.linalg.norm(v))
    codes = direction_codes(np.array(directions))
    assert ((0 <= codes) & (codes < len(VALID_LIMB_SYMBOLS))).all()
    for sym in _symbols(directions):
        assert isinstance(sym, LabanSymbol)
        assert not (sym.direction == D.Place and sym.level == L.Middle)


def test_quantization_robustness_under_10_degrees(rng):
    for _ in range(300):
        sym = VALID_LIMB_SYMBOLS[int(rng.integers(0, 26))]
        v = CODE_VECTORS[SYMBOL_CODES[sym]]
        axis = rng.normal(size=3)
        while np.linalg.norm(np.cross(axis, v)) < 1e-9:
            axis = rng.normal(size=3)
        angle = math.radians(float(rng.uniform(0.0, 9.99)))
        w = rotate_about(v, axis, angle)
        w /= np.linalg.norm(w)
        assert _symbols([w]) == [sym]


def test_encode_pose_tpose():
    symbols = encode_pose(_pose(right_arm="right_middle", left_arm="left_middle"), ARM_COLUMNS)
    assert symbols["LeftArm"] == LabanSymbol(D.Left, L.Middle)
    assert symbols["RightArm"] == LabanSymbol(D.Right, L.Middle)


def test_encode_pose_arms_down_head_up():
    symbols = encode_pose(_pose(), ARM_COLUMNS)
    assert symbols["LeftArm"] == LabanSymbol(D.Place, L.Low)
    assert symbols["RightArm"] == LabanSymbol(D.Place, L.Low)
    assert symbols["Head"] == LabanSymbol(D.Place, L.High)


def test_encode_pose_split_columns():
    symbols = encode_pose(_pose(right_arm="forward_high"), SPLIT_COLUMNS)
    assert symbols["RightUpperArm"] == LabanSymbol(D.Forward, L.High)
    assert symbols["RightForearm"] == LabanSymbol(D.Forward, L.High)


_EDGE_ELEVATIONS = (-67.5, -22.5, 22.5, 67.5)
_EDGE_AZIMUTHS = tuple(-157.5 + 45.0 * k for k in range(8)) + (180.0,)


def _edge_directions(rng, n):
    """n unit directions; most sit on an elevation band edge, a sector edge or both."""
    elev = np.where(rng.random(n) < 0.7, rng.choice(_EDGE_ELEVATIONS, n), rng.uniform(-90.0, 90.0, n))
    azim = np.where(rng.random(n) < 0.7, rng.choice(_EDGE_AZIMUTHS, n), rng.uniform(-180.0, 180.0, n))
    th, ph = np.radians(elev), np.radians(azim)
    return np.column_stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), np.sin(th)])


def _edge_poses(rng, n):
    return _pose_positions({side: _edge_directions(rng, n) for side in ("left", "right", "head")})


@pytest.mark.parametrize("columns", [ARM_COLUMNS, SPLIT_COLUMNS], ids=["arm", "split"])
def test_encode_poses_matches_per_pose_reference(rng, columns):
    on_edge = 0
    for trial in range(40):
        positions = _edge_poses(rng, int(rng.integers(1, 40)))
        if trial % 2:  # rounding moves directions off the edges, to either side
            positions = positions @ random_rotation(rng).T + rng.normal(size=3)
        got = encode_poses(positions, columns)
        want = [encode_pose_reference(pos, columns) for pos in positions]
        assert got.dtype == np.intp and got.shape == (len(positions), len(columns))
        assert got.tolist() == [[SYMBOL_CODES[state[col]] for col in columns] for state in want]
        assert [encode_pose(pos, columns) for pos in positions] == want
        for z in column_directions(positions, columns)[:, :, 2].T:
            on_edge += sum(math.degrees(math.asin(x)) in _EDGE_ELEVATIONS for x in z.tolist())
    assert on_edge  # some elevations land exactly on a band edge


# faults put into one pose: a joint moved onto another (a body frame fault
# or a zero-length column segment), or a scale for the whole pose
_FAULTS = {
    "zero shoulder span": (JointName.ShoulderLeft, JointName.ShoulderRight),
    "wrist on elbow": (JointName.WristRight, JointName.ElbowRight),
    "elbow on shoulder": (JointName.ElbowLeft, JointName.ShoulderLeft),
    "head on neck": (JointName.Head, JointName.Neck),
    "tiny pose": 1e-300,  # zero spine length
    "huge pose": 1e200,  # overflowing spine and shoulder lengths: a non-finite body frame
}


def _put_fault(pose, fault):
    what = _FAULTS[fault]
    if isinstance(what, tuple):
        pose[JOINT_INDEX[what[0]]] = pose[JOINT_INDEX[what[1]]]
    else:
        pose *= what


def _error(encode):
    try:
        encode()
    except LabanMotionError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("columns", [ARM_COLUMNS, SPLIT_COLUMNS], ids=["arm", "split"])
def test_encode_poses_error_names_the_first_failing_pose(rng, columns):
    seen = set()
    for _ in range(150):
        n = int(rng.integers(1, 12))
        positions = _edge_poses(rng, n)
        with np.errstate(all="ignore"):  # the huge pose overflows on purpose
            for _ in range(int(rng.integers(1, 4))):
                _put_fault(positions[int(rng.integers(n))], list(_FAULTS)[int(rng.integers(len(_FAULTS)))])
            want = _error(lambda: [encode_pose_reference(pos, columns) for pos in positions])
            assert _error(lambda: encode_poses(positions, columns)) == want
        seen.add(want and want[1])
    # body frame faults, the huge pose's among them, and column faults all came first somewhere;
    # the huge pose's all-zero axes no longer reach the unit check
    assert {"zero shoulder span", "zero spine length", "non-finite body frame"} <= seen
    assert not any(m and m.startswith("expected a unit vector") for m in seen)
    assert any(m and m.startswith("column RightForearm" if "RightForearm" in columns else "column RightArm")
               for m in seen)


def test_encode_poses_without_columns_checks_the_body_frame():
    positions = _edge_poses(np.random.default_rng(3), 4)
    assert encode_poses(positions, ()).shape == (4, 0)
    _put_fault(positions[2], "zero shoulder span")
    with pytest.raises(DegeneratePose, match="zero shoulder span"):
        encode_poses(positions, ())


def test_encode_sequence_static_forced_keyframe():
    seq = synth_motion({"pattern": "static", "duration": 1.0}, rate=30.0)
    kfs = KeyFrameSet(per_part={}, merged=[len(seq) - 1], params=EnergyParams())
    score = encode_sequence(seq, kfs)
    assert validate(score) == []
    for col in score.columns:
        assert len(col.cells) == 1
    assert dict(score.columns)["LeftArm"][0].code == symbol_code(D.Place, L.Low)
    assert dict(score.columns)["RightArm"][0].code == symbol_code(D.Place, L.Low)


def test_encode_sequence_move_hold_move():
    seq = synth_motion(
        {"pattern": "move_hold_move", "part": "right_arm",
         "from_pose": "place_low", "to_pose": "forward_middle", "hold": 0.5},
        rate=30.0,
    )
    score = encode_sequence(seq, extract_keyframes(seq))
    right = dict(score.columns)["RightArm"]
    assert [c.code for c in right] == [
        symbol_code(D.Place, L.Low),
        symbol_code(D.Forward, L.Middle),
    ]
    assert validate(score) == []


def test_encode_sequence_coalesces_identical_symbols():
    seq = synth_motion({"pattern": "static", "duration": 2.0}, rate=30.0)
    kfs = KeyFrameSet(per_part={}, merged=[20, 40], params=EnergyParams())
    score = encode_sequence(seq, kfs)
    for col in score.columns:
        assert len(col.cells) == 1  # identical consecutive key poses merge


def test_encode_sequence_no_keyframes():
    seq = synth_motion({"pattern": "static", "duration": 1.0}, rate=30.0)
    kfs = KeyFrameSet(per_part={}, merged=[], params=EnergyParams())
    with pytest.raises(NoKeyFrames):
        encode_sequence(seq, kfs)


def test_encode_sequence_skips_time_zero_keyframe():
    seq = synth_motion({"pattern": "static", "duration": 1.0}, rate=30.0)
    kfs = KeyFrameSet(per_part={}, merged=[0, 15], params=EnergyParams())
    score = encode_sequence(seq, kfs)
    assert validate(score) == []
    assert dict(score.columns)["RightArm"][0].start == 0.0


def test_world_frame_invariance_of_scores(rng):
    seq = synth_motion(
        {"pattern": "reach_sequence", "part": "right_arm",
         "poses": [["place_low", 0.5], ["forward_middle", 0.5], ["right_high", 0.5]]},
        rate=30.0,
    )
    from labanmotion.laban import serialize_score

    base = serialize_score(encode_sequence(seq, extract_keyframes(seq)))
    for _ in range(10):
        R = random_rotation(rng)
        t = rng.normal(size=3) * 2.0
        moved = transform_sequence(seq, R, t)
        moved_score = serialize_score(encode_sequence(moved, extract_keyframes(moved)))
        assert moved_score == base


def test_encoder_output_always_validates(rng):
    pose_names = ["place_low", "forward_middle", "left_high", "right_middle", "place_high"]
    for _ in range(5):
        k = int(rng.integers(2, 5))
        poses = [[pose_names[int(rng.integers(0, len(pose_names)))], float(rng.uniform(0.4, 0.7))]]
        for _ in range(k - 1):
            nxt = pose_names[int(rng.integers(0, len(pose_names)))]
            while nxt == poses[-1][0]:
                nxt = pose_names[int(rng.integers(0, len(pose_names)))]
            poses.append([nxt, float(rng.uniform(0.4, 0.7))])
        seq = synth_motion({"pattern": "reach_sequence", "part": "left_arm", "poses": poses}, rate=30.0)
        kfs = extract_keyframes(seq)
        if not kfs.merged:
            continue
        score = encode_sequence(seq, kfs)
        assert validate(score) == []


# ---------------------------------------------------------------------------
# One vocabulary: every module reads laban's tables
# ---------------------------------------------------------------------------

_POSE_DIRECTIONS = {"place": D.Place, "forward": D.Forward, "left_forward": D.LeftForward, "left": D.Left,
                    "left_backward": D.LeftBackward, "backward": D.Backward, "right_backward": D.RightBackward,
                    "right": D.Right, "right_forward": D.RightForward}
_POSE_LEVELS = {"high": L.High, "middle": L.Middle, "low": L.Low}


def test_encoder_columns_are_the_laban_column_names():
    assert set(COLUMN_DISTAL) == laban.COLUMN_NAMES
    assert set(ARM_COLUMNS) | set(SPLIT_COLUMNS) == laban.COLUMN_NAMES
    assert (ARM_COLUMNS, SPLIT_COLUMNS) == (laban.ARM_COLUMNS, laban.SPLIT_COLUMNS)


def test_azimuth_sectors_run_counterclockwise_from_forward():
    assert AZIMUTH_SECTORS == (D.Forward, D.LeftForward, D.Left, D.LeftBackward, D.Backward, D.RightBackward,
                               D.Right, D.RightForward)


def test_every_pose_name_digitizes_to_its_symbol():
    names = [(d, l) for d in _POSE_DIRECTIONS for l in _POSE_LEVELS if (d, l) != ("place", "middle")]
    assert len(names) == len(laban.VALID_LIMB_SYMBOLS) == 26
    for d, l in names:
        assert _symbols([pose_vector(f"{d}_{l}")]) == [LabanSymbol(_POSE_DIRECTIONS[d], _POSE_LEVELS[l])]


def test_pose_vectors_are_the_band_centers():
    for name_d, d in _POSE_DIRECTIONS.items():
        for name_l, l in _POSE_LEVELS.items():
            code = SYMBOL_CODES[LabanSymbol(d, l)]
            if d != D.Place:
                assert pose_vector(f"{name_d}_{name_l}").tobytes() == laban.CODE_VECTORS[code].tobytes()
            elif l != L.Middle:
                # a Place pose goes through the formula at +-90 degrees; its
                # band center is exactly up or down, 6e-17 away in x
                up = 1.0 if l == L.High else -1.0
                assert pose_vector(f"place_{name_l}").tobytes() == laban.direction_vector(0.0, 90.0 * up).tobytes()
                assert laban.CODE_VECTORS[code].tolist() == [0.0, 0.0, up]
                assert laban.CODE_VECTORS[SYMBOL_CODES[LabanSymbol(d, l)]].tolist() == [0.0, 0.0, up]


def test_direction_angles_invert_the_direction_formula(rng):
    angles = [(0.0, 0.0), (90.0, 45.0), (-135.0, -45.0), (180.0, 89.0)] + np.column_stack(
        [rng.uniform(-180.0, 180.0, 200), rng.uniform(-89.0, 89.0, 200)]).tolist()
    directions = np.array([laban.direction_vector(yaw, pitch) for yaw, pitch in angles])
    azimuth, elevation = laban.direction_angles(directions)
    assert np.allclose(azimuth, [a for a, _ in angles], atol=1e-9)
    assert np.allclose(elevation, [e for _, e in angles], atol=1e-9)
    # the per-value math.asin and math.atan2 of each row, in degrees, bit for bit
    assert azimuth.tolist() == [math.degrees(math.atan2(y, x)) for x, y, _ in directions.tolist()]
    assert elevation.tolist() == [math.degrees(math.asin(max(-1.0, min(1.0, z)))) for *_, z in directions.tolist()]


def test_code_vectors_are_read_only_rows_of_each_code():
    assert laban.CODE_VECTORS.shape == (26, 3) and not laban.CODE_VECTORS.flags.writeable
    for code, symbol in enumerate(laban.VALID_LIMB_SYMBOLS):
        assert SYMBOL_CODES[symbol] == code
        assert laban.CODE_TOKENS[code] == (symbol.direction.value, symbol.level.value)
