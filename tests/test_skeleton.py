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
from labanmotion import skeleton
from labanmotion.skeleton import (
    ALL_JOINTS,
    JOINT_INDEX,
    JointName,
    SkeletonSequence,
    body_frame,
    descriptor_timeline,
    load_sequence,
    parse_sequence,
    pose_vector,
    resample,
    save_sequence,
    serialize_sequence,
    synth_motion,
)

from conftest import parse_sequence_reference, random_rotation, transform_sequence


def test_geometry_masks_read_every_child_after_the_root():
    """The masks read the child joints as the view positions[:, 1:], which
    holds only while the children are every joint after SpineBase; the
    masks equal those of gathering both sides."""
    child_idx = [skeleton.JOINT_INDEX[j] for j in skeleton._CHILDREN]
    assert child_idx == list(range(1, 12)) == list(range(1, len(ALL_JOINTS)))
    rng = np.random.default_rng(5)
    positions = rng.normal(size=(60, len(ALL_JOINTS), 3))
    times = np.arange(60) / 30.0
    positions[3, 4] = positions[3, skeleton._PARENT_IDX[3]]  # a joint on its parent
    positions[7, 2, 1] = math.nan
    positions[9, 5, 0] = math.inf
    positions[11, 6] = [1e200, -1e200, 1e200]  # a squared distance that overflows to inf
    positions[13, 8] = positions[13, skeleton._PARENT_IDX[7]] + [1e-170, 0.0, 0.0]  # one that underflows to 0
    times[15] = math.nan
    timed, located, apart = skeleton._geometry_masks(times, positions)
    d = positions[:, child_idx] - positions[:, skeleton._PARENT_IDX]
    with np.errstate(invalid="ignore", over="ignore"):
        want_apart = skeleton.stacked_dot(d, d) > 0.0
    assert np.array_equal(timed, np.isfinite(times))
    assert np.array_equal(located, np.isfinite(positions).all(axis=2))
    assert np.array_equal(apart, want_apart)
    assert not apart[3, 3] and not apart[13, 7] and apart[11, 5]


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


class _Text:
    """Mutator of the dumped text, applied after every object mutator."""

    def __init__(self, edit):
        self.edit = edit


def _cut_in_frame(i):
    """Text cut off just inside frame i's joints object, then a newline."""
    return _Text(lambda text: text[:_nth(text, '"joints": {', i + 1) + len('"joints": {')] + "\n")


def _nth(text, needle, n):
    idx = -1
    for _ in range(n):
        idx = text.index(needle, idx + 1)
    return idx


_DEEP = 100_000  # nesting depth beyond any recursion limit


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
    "three-char-string-triple": ([_set([2, "joints", "Head"], "abc")], MalformedFrame, {"index": 2, "joint": "Head"}),
    "three-key-object-triple": ([_set([2, "joints", "Head"], {"x": 0.0, "y": 0.0, "z": 1.0})], MalformedFrame,
                                {"index": 2, "joint": "Head"}),
    "four-element-triple": ([_set([2, "joints", "Head"], [0.0, 0.0, 1.0, 0.0])], MalformedFrame,
                            {"index": 2, "joint": "Head"}),
    # the flat list still holds 36 numbers per frame, shifted
    "long-and-short-triples": ([_set([2, "joints", "Neck"], [0.0, 0.0, 0.6, 0.0]),
                                _set([2, "joints", "Head"], [0.0, 0.0])],
                               MalformedFrame, {"index": 2, "joint": "Neck"}),
    "string-and-bool-triple": ([_set([2, "joints", "HandRight"], ["0.1", True, 0.8])], MalformedFrame,
                               {"index": 2, "joint": "HandRight"}),
    "type-before-later-geometry": ([_set([1, "joints", "Head", 0], "0"), _set([2, "joints", "Neck", 0], NAN)],
                                   MalformedFrame, {"index": 1, "joint": "Head"}),
    "geometry-before-later-type": ([_set([1, "joints", "Head", 2], NAN), _set([2, "joints", "Neck", 1], False)],
                                   MalformedFrame, {"index": 1, "joint": "Head"}),
    "type-joint-order-within-frame": ([_set([2, "joints", "HandRight", 0], True),
                                       _set([2, "joints", "SpineShoulder", 2], "0.5")],
                                      MalformedFrame, {"index": 2, "joint": "SpineShoulder"}),
    # syntax and document shape: the faults a frame-by-frame reader meets first
    "data-after-root": ([_Text(lambda text: text + "\n{}")], ParseError,
                        {"location": "line 2, column 1", "detail": "Extra data"}),
    # where the error points differs between Python versions (at the comma or after it)
    "trailing-comma-in-frames": ([_Text(lambda text: text[:-2] + ",\n" + text[-2:])], ParseError, {}),
    "cut-off-inside-a-frame": ([_cut_in_frame(2)], ParseError,
                               {"location": "line 2, column 1",
                                "detail": "Expecting property name enclosed in double quotes"}),
    "frame-nested-too-deep": ([_set([2], "deep"), _Text(lambda text: text.replace('"deep"', "[" * _DEEP + "]" * _DEEP))],
                              ParseError, {"location": "$"}),
    "number-as-key": ([_Text(lambda text: '{30: 1, ' + text[1:])], ParseError,
                      {"location": "line 1, column 2", "detail": "Expecting property name enclosed in double quotes"}),
    "root-not-object": ([_Text(lambda text: f"[{text}]")], ParseError,
                        {"location": "$", "detail": "expected a JSON object"}),
    "frames-not-list": ([lambda obj: obj.update(frames={"0": obj["frames"][0]})], ParseError,
                        {"location": "$", "detail": "expected object with a 'frames' list"}),
}


# the cases whose text is not one JSON object
_SYNTAX = {"data-after-root", "trailing-comma-in-frames", "cut-off-inside-a-frame", "frame-nested-too-deep",
           "number-as-key", "root-not-object"}


def _malformed_text(case):
    mutators = MALFORMED[case][0]
    obj = json.loads(serialize_sequence(synth_motion({"pattern": "static", "duration": 0.2}, rate=30.0)))
    for mutate in mutators:
        if not isinstance(mutate, _Text):
            mutate(obj)
    text = json.dumps(obj)
    for mutate in mutators:
        if isinstance(mutate, _Text):
            text = mutate.edit(text)
    return text


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_malformed_skeleton(case):
    _, error, attrs = MALFORMED[case]
    with pytest.raises(error) as exc:
        parse_sequence(_malformed_text(case))
    assert {k: getattr(exc.value, k) for k in attrs} == attrs


def _streamed_variants():
    """(name, text) of valid skeleton documents in layouts and key orders
    other than the canonical one; most hold more frames than one chunk."""
    seq = synth_motion({"pattern": "move_hold_move", "part": "left_arm", "from_pose": "place_low",
                        "to_pose": "left_high", "hold": 2.5}, rate=30.0)
    assert len(seq) > 2 * skeleton._CHUNK
    obj = json.loads(serialize_sequence(seq))
    frames = json.dumps(obj["frames"])
    other = json.dumps(obj["frames"][::2])
    broken = json.loads(frames)
    del broken[3]["joints"]["Neck"]
    extra = json.loads(frames)
    for f in extra:
        f["confidence"] = [1.0, {"tracked": True}]
        f["joints"] = {"Spine": [0.0, 0.0, 0.3], **dict(reversed(f["joints"].items()))}
    ints = json.loads(frames)
    for i, f in enumerate(ints):
        f["t"] = i
        f["joints"]["SpineBase"] = [0, 0, 0]
    yield "canonical", serialize_sequence(seq)
    yield "dumps", json.dumps(obj)
    yield "indent-4", json.dumps(obj, indent=4)
    yield "compact", json.dumps(obj, separators=(",", ":"))
    yield "frames-first", json.dumps({"frames": obj["frames"], "sample_rate_hint": 30.0})
    yield "unknown-root-keys", json.dumps({"meta": {"by": ["x", {"y": None}], "n": 1e300}, "frames": obj["frames"],
                                          "sample_rate_hint": 30.0, "tail": [[[]], "]}"]})
    yield "frames-valid-then-valid", f'{{"frames": {frames}, "sample_rate_hint": 30.0, "frames": {other}}}'
    yield "frames-invalid-then-valid", f'{{"frames": {json.dumps(broken)}, "sample_rate_hint": 30.0, "frames": {frames}}}'
    yield "frames-not-list-then-valid", f'{{"frames": {{"0": 1}}, "frames": {frames}, "sample_rate_hint": 30.0}}'
    yield "hint-repeated", f'{{"sample_rate_hint": 25.0, "frames": {frames}, "sample_rate_hint": 30.0}}'
    yield "hint-repeated-last-wrong", f'{{"sample_rate_hint": 30.0, "frames": {frames}, "sample_rate_hint": 25.0}}'
    yield "extra-frame-and-joint-keys", json.dumps({"sample_rate_hint": 30.0, "frames": extra})
    yield "integer-t-and-coordinates", json.dumps({"sample_rate_hint": 1, "frames": ints})
    yield "nan-hint", json.dumps({"sample_rate_hint": NAN, "frames": obj["frames"]})
    yield "no-frames", '{"sample_rate_hint": 30.0, "frames": []}'
    tabbed = json.dumps(obj["frames"], indent="\t")
    yield "whitespace", ' \r\n\t{ "frames" \n: \t' + tabbed + ' }\n\n'


_VARIANTS = dict(_streamed_variants())


class _WholeDocument(Exception):
    pass


def _no_whole_document(monkeypatch, chunk):
    """Make ``read_json``, the one whole-document read, raise _WholeDocument, and
    convert ``chunk`` frames at a time."""
    def whole_document(text):
        raise _WholeDocument

    monkeypatch.setattr(skeleton, "read_json", whole_document)
    monkeypatch.setattr(skeleton, "_CHUNK", chunk)


@pytest.mark.parametrize("chunk", [1, 7, skeleton._CHUNK])
@pytest.mark.parametrize("name", list(_VARIANTS))
def test_valid_documents_are_read_frame_by_frame(monkeypatch, name, chunk):
    """Every valid document is read frame by frame, never whole, and gives what
    the reference reads from the ``json.loads`` tree, bit for bit."""
    text = _VARIANTS[name]
    want = parse_sequence_reference(text)
    _no_whole_document(monkeypatch, chunk)
    got = parse_sequence(text)
    assert got.times.dtype == want.times.dtype and got.positions.dtype == want.positions.dtype
    assert got.times.shape == want.times.shape and got.positions.shape == want.positions.shape
    assert got.times.tobytes() == want.times.tobytes() and got.positions.tobytes() == want.positions.tobytes()
    assert got.sample_rate == want.sample_rate and type(got.sample_rate) is type(want.sample_rate)
    if name == "frames-valid-then-valid":
        assert len(got) == len(json.loads(text)["frames"]) < len(json.loads(_VARIANTS["dumps"])["frames"])
    if name == "no-frames":
        assert got.positions.shape == (0, len(ALL_JOINTS), 3)


@pytest.mark.parametrize("chunk", [1, 2, skeleton._CHUNK])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_are_named_frame_by_frame(monkeypatch, case, chunk):
    """Every fault of a document that is one JSON object is named by the
    frame-by-frame read, whatever frame a chunk starts at, with the error the
    reference gives; only text that is not one JSON object is read whole."""
    text = _malformed_text(case)
    _, error, attrs = MALFORMED[case]
    with pytest.raises(error) as want:
        parse_sequence_reference(text)
    _no_whole_document(monkeypatch, chunk)
    if case in _SYNTAX:
        with pytest.raises(_WholeDocument):
            parse_sequence(text)
        return
    with pytest.raises(error) as exc:
        parse_sequence(text)
    assert {k: getattr(exc.value, k) for k in attrs} == attrs
    assert str(exc.value) == str(want.value)


@pytest.mark.parametrize("chunk", [1, 4, skeleton._CHUNK])
def test_a_non_finite_t_before_a_frame_that_cannot_be_read_is_named_by_the_range_check(monkeypatch, chunk):
    """A non-finite ``t`` is a geometry fault, named "non-finite timestamp";
    when a frame that cannot be read follows it, in its chunk or a later one,
    it is named by the range check with its value, as that frame's own
    check names it."""
    monkeypatch.setattr(skeleton, "_CHUNK", chunk)
    obj = json.loads(serialize_sequence(synth_motion({"pattern": "static", "duration": 0.4}, rate=30.0)))
    obj["frames"][2]["t"] = INF
    del obj["frames"][2]["joints"]["Head"]
    with pytest.raises(ParseError, match=r"^frames\[2\]\.t: non-finite timestamp$"):
        parse_sequence(json.dumps(obj))
    obj["frames"][9]["joints"]["Neck"] = [0.0, "0.5", 0.6]
    with pytest.raises(ParseError, match=r"^frames\[2\]\.t: timestamp must be a finite number, got inf$"):
        parse_sequence(json.dumps(obj))
    obj["frames"][1]["joints"]["Head"][0] = NAN  # an earlier geometry fault comes first either way
    with pytest.raises(MalformedFrame, match=r"^frame 1: joint Head \(non-finite coordinate\)$"):
        parse_sequence(json.dumps(obj))


def test_a_later_invalid_frames_key_replaces_a_valid_one():
    """A repeated key keeps its last value: a valid frames list followed by
    an invalid one raises the error of the invalid one."""
    obj = json.loads(serialize_sequence(synth_motion({"pattern": "static", "duration": 0.2}, rate=30.0)))
    frames = json.dumps(obj["frames"])
    del obj["frames"][2]["joints"]["Head"]
    text = f'{{"frames": {frames}, "sample_rate_hint": 30.0, "frames": {json.dumps(obj["frames"])}}}'
    with pytest.raises(MalformedFrame) as exc:
        parse_sequence(text)
    assert (exc.value.index, exc.value.joint, str(exc.value)) == (2, "Head", "frame 2: joint Head (missing)")
    with pytest.raises(ParseError, match=r"^\$: expected object with a 'frames' list$"):
        parse_sequence(f'{{"frames": {frames}, "frames": null}}')


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
    forward, left, up = body_frame(_upright_pose())
    assert np.allclose(up, [0, 0, 1], atol=1e-12)
    assert np.allclose(left, [0, 1, 0], atol=1e-12)
    assert np.allclose(forward, [1, 0, 0], atol=1e-12)


def test_body_frame_rotated_90_about_z():
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    forward, left, up = body_frame(_upright_pose() @ Rz.T)
    assert np.allclose(forward, Rz @ np.array([1.0, 0.0, 0.0]), atol=1e-9)
    assert np.allclose(left, Rz @ np.array([0.0, 1.0, 0.0]), atol=1e-9)
    # orthonormality preserved
    M = np.column_stack([forward, left, up])
    assert np.allclose(M.T @ M, np.eye(3), atol=1e-9)


def test_body_frame_equivariance_randomized(rng):
    pose = _upright_pose()
    for _ in range(25):
        R = random_rotation(rng)
        t = rng.normal(size=3)
        moved = pose @ R.T + t
        axes0 = body_frame(pose)
        axes1 = body_frame(moved)
        for k in range(3):  # forward, left, up
            assert np.max(np.abs(axes1[k] - R @ axes0[k])) < 1e-6


def test_body_frame_orthonormal_and_right_handed():
    forward, left, up = body_frame(_upright_pose())
    for v in (forward, left, up):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    assert abs(forward @ left) < 1e-9
    assert abs(forward @ up) < 1e-9
    assert abs(left @ up) < 1e-9
    det = np.linalg.det(np.column_stack([forward, left, up]))
    assert abs(det - 1.0) < 1e-6


def test_body_frame_degenerate_shoulders():
    pose = _upright_pose()
    pose[JOINT_INDEX[JointName.ShoulderLeft]] = pose[JOINT_INDEX[JointName.ShoulderRight]]
    with pytest.raises(DegeneratePose):
        body_frame(pose)


@pytest.mark.parametrize("joints", [(JointName.SpineBase, JointName.SpineShoulder),
                                    (JointName.ShoulderRight, JointName.ShoulderLeft)], ids=["spine", "shoulders"])
def test_body_frame_rejects_a_frame_whose_span_overflows(joints):
    """Finite positions whose difference overflows give NaN axes, which every
    length test lets through; the frame is refused, with no RuntimeWarning."""
    poses = np.stack([_upright_pose()] * 3)
    poses[1, JOINT_INDEX[joints[0]], 2] = -1.7e308
    poses[1, JOINT_INDEX[joints[1]], 2] = 1.7e308
    for pos in (poses, poses[1]):
        with pytest.raises(DegeneratePose, match="^non-finite body frame$"):
            body_frame(pos)
    body_frame(poses[[0, 2]])


def test_body_frame_rejects_a_pose_whose_lengths_overflow():
    """A pose times 1e200 has finite spans whose norms overflow to inf: the
    axes (a span divided by inf) would be all zero, which is finite, so the
    infinite lengths themselves refuse the frame."""
    poses = np.stack([_upright_pose()] * 3)
    poses[1] *= 1e200
    for pos in (poses, poses[1]):
        with pytest.raises(DegeneratePose, match="^non-finite body frame$"):
            body_frame(pos)
    body_frame(poses[[0, 2]])


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


def _synth_motion_nested(descriptor: dict, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference: (times, positions) of the generator that scans the plan
    from its first segment again for every frame."""
    part, plan = skeleton._segment_plan(descriptor)
    n = int(round(sum(seconds for _, seconds, _, _ in plan) * rate))
    times = np.arange(n) / rate
    moved = np.empty((n, 3))
    for i, t in enumerate(times.tolist()):
        u = plan[-1][3]
        acc = 0.0
        for kind, seconds, a, b in plan:
            if t < acc + seconds - 1e-12:
                u = a if kind == "dwell" else skeleton._slerp(
                    a, b, skeleton._move_profile((t - acc) / seconds, seconds))
                break
            acc += seconds
        moved[i] = u
    dirs = {"left": pose_vector("place_low"), "right": pose_vector("place_low"), "head": pose_vector("place_high")}
    dirs[part.split("_")[0]] = moved
    return times, skeleton._pose_positions(dirs)


_POSE_NAMES = [f"{d}_{l}" for d in ("place", "forward", "left_forward", "left", "left_backward", "backward",
                                    "right_backward", "right", "right_forward")
               for l in ("high", "middle", "low") if (d, l) != ("place", "middle")]


def test_synth_motion_matches_nested_scan_reference(rng):
    lead_zero = on_end = near_end = 0
    for _ in range(80):
        part = str(rng.choice(["left_arm", "right_arm", "head"]))
        # move_seconds 3.0 outlasts every arc (0.7 s per radian), so segment
        # ends fall on sums of the dwell choices: on frame times, or within
        # 1e-12 of one after rounding
        move = float(rng.choice([0.0, 0.5, 3.0]))
        dwells = [0.1, 0.25, 0.3, 0.5, 0.7, 1.0]
        if rng.random() < 0.4:
            lead = float(rng.choice([0.0, 0.25, 0.5]))
            from_pose, to_pose = (str(p) for p in rng.choice(_POSE_NAMES, size=2))
            descriptor = {"pattern": "move_hold_move", "part": part, "from_pose": from_pose, "to_pose": to_pose,
                          "hold": float(rng.choice(dwells)), "lead_seconds": lead, "move_seconds": move}
            lead_zero += lead == 0.0
        else:
            names = rng.choice(_POSE_NAMES, size=int(rng.integers(2, 12)))
            poses = [[str(p), float(rng.choice(dwells))] for p in names]
            descriptor = {"pattern": "reach_sequence", "part": part, "poses": poses, "move_seconds": move}
        rate = float(rng.choice([4.0, 8.0, 10.0, 30.0]))
        seq = synth_motion(descriptor, rate=rate)
        times, positions = _synth_motion_nested(descriptor, rate)
        assert seq.times.tobytes() == times.tobytes()
        assert seq.positions.tobytes() == positions.tobytes()
        ends = [end for _, _, end in descriptor_timeline(descriptor)]
        on_end += any(t in ends for t in times.tolist())
        near_end += any(0.0 < end - t <= 1e-12 for end in ends for t in times.tolist())
    assert lead_zero > 5 and on_end > 20 and near_end > 0
