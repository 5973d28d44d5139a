"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import glob
import math
import os
import time

import numpy as np
import pytest

from labanmotion.encoder import direction_codes, encode_poses, encode_sequence
from labanmotion.keyframe import EnergyParams, energy, extract_keyframes
from labanmotion.laban import (
    CODE_VECTORS,
    SYMBOL_CODES,
    VALID_LIMB_SYMBOLS,
    Cell,
    Direction,
    LabanColumn,
    LabanScore,
    LabanSymbol,
    Level,
    direction_vector,
    load_score,
    parse_score,
    serialize_score,
    validate,
)
from labanmotion.robot import (
    BUNDLED_ROBOTS,
    KeyPoses,
    decode_score_detailed,
    load_robot,
    project_path,
)
from labanmotion.skeleton import JointName, descriptor_timeline, synth_motion
from labanmotion.trajectory import (
    MotionDictionary,
    _rows_at,
    dict_update,
    serialize_dictionary,
    synthesize,
)

from conftest import oracle_energy, random_rotation, random_score, rotate_about, state_key, transform_sequence

DATA = os.path.join(os.path.dirname(__file__), "data")

D = Direction
L = Level
S = LabanSymbol


def _report(num: int, name: str, failures: list, elapsed: float, budget: float):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded time budget: {elapsed:.2f}s"
    assert not failures, f"criterion {num} failures: {failures[:5]} (total {len(failures)})"


def test_criterion_01_symbol_roundtrip():
    t0 = time.perf_counter()
    failures = []
    for sym in VALID_LIMB_SYMBOLS:
        back = VALID_LIMB_SYMBOLS[direction_codes(CODE_VECTORS[SYMBOL_CODES[sym]])[0]]
        if back != sym:
            failures.append((str(sym), str(back)))
    assert len(VALID_LIMB_SYMBOLS) == 26
    _report(1, "symbol round-trip, 26 symbols", failures, time.perf_counter() - t0, 1.0)


def test_criterion_02_energy_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    pose_names = ["place_low", "forward_middle", "left_high", "right_middle",
                  "forward_high", "left_forward_middle", "place_high", "right_forward_low"]
    params = EnergyParams()
    failures = []
    for trial in range(50):
        if trial % 2 == 0:
            k = int(rng.integers(2, 4))
            picks = list(rng.choice(pose_names, size=k, replace=False))
            poses = [[name, float(rng.uniform(0.3, 0.55))] for name in picks]
            part_name = "right_arm" if trial % 4 == 0 else "left_arm"
            seq = synth_motion(
                {"pattern": "reach_sequence", "part": part_name, "poses": poses,
                 "move_seconds": float(rng.uniform(0.5, 0.9))},
                rate=30.0,
            )
            joints = (JointName.WristRight, JointName.ElbowRight) if "right" in part_name \
                else (JointName.WristLeft, JointName.ElbowLeft)
        else:
            a, b = rng.choice(pose_names, size=2, replace=False)
            seq = synth_motion(
                {"pattern": "reach_sequence", "part": "right_arm",
                 "poses": [[str(a), 0.6], [str(b), float(rng.uniform(0.4, 0.9))]]},
                rate=30.0,
            )
            joints = (JointName.WristRight, JointName.Head)
        if len(seq) > 200:
            failures.append((trial, "sequence too long"))
            continue
        for part in joints:
            got = energy(seq, part, params)
            ref = np.array(oracle_energy(seq, part, params.sigma))
            err = float(np.max(np.abs(got - ref)))
            if err >= 1e-9:
                failures.append((trial, part.value, err))
    _report(2, "energy oracle equivalence, 50 sequences", failures, time.perf_counter() - t0, 10.0)


def test_criterion_03_keyframe_recall():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    pose_names = ["place_low", "forward_middle", "left_high", "right_middle",
                  "forward_high", "place_high", "right_forward_middle"]
    rate = 30.0
    trials = 60
    passed = 0
    for _ in range(trials):
        n_plateaus = int(rng.integers(3, 7))
        picks = [pose_names[int(rng.integers(0, len(pose_names)))]]
        while len(picks) < n_plateaus:
            nxt = pose_names[int(rng.integers(0, len(pose_names)))]
            if nxt != picks[-1]:
                picks.append(nxt)
        dwells = [float(rng.uniform(0.4, 0.8)) for _ in range(n_plateaus)]
        move_s = float(rng.uniform(0.55, 0.9))
        descriptor = {
            "pattern": "reach_sequence", "part": "right_arm",
            "poses": [[p, d] for p, d in zip(picks, dwells)], "move_seconds": move_s,
        }
        seq = synth_motion(descriptor, rate=rate)
        segments = descriptor_timeline(descriptor)
        kfs = extract_keyframes(seq)
        times = seq.times
        kf_times = [float(times[i]) for i in kfs.merged]
        slack = 3.0 / rate
        ok = True
        for kind, a, b in segments:
            if kind == "dwell":
                if not any(a - slack <= kt <= b + slack for kt in kf_times):
                    ok = False  # a stop without a key frame
            else:
                if any(a + slack < kt < b - slack for kt in kf_times):
                    ok = False  # a key frame in sustained motion
        passed += ok
    failures = [] if passed / trials >= 0.95 else [f"pass rate {passed}/{trials}"]
    _report(3, "key-frame recall on synthetic stops", failures, time.perf_counter() - t0, 30.0)


def test_criterion_04_quantization_robustness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    failures = []
    for trial in range(1000):
        sym = VALID_LIMB_SYMBOLS[int(rng.integers(0, 26))]
        v = CODE_VECTORS[SYMBOL_CODES[sym]]
        axis = rng.normal(size=3)
        while np.linalg.norm(np.cross(axis, v)) < 1e-9:
            axis = rng.normal(size=3)
        angle = math.radians(float(rng.uniform(0.0, 9.999)))
        w = rotate_about(v, axis, angle)
        w /= np.linalg.norm(w)
        if VALID_LIMB_SYMBOLS[direction_codes(w)[0]] != sym:
            failures.append((trial, str(sym)))
    _report(4, "quantization robustness, 1000 perturbed poses", failures,
            time.perf_counter() - t0, 30.0)


def test_criterion_05_world_frame_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    clips = [
        synth_motion(
            {"pattern": "reach_sequence", "part": part,
             "poses": [["place_low", 0.5], [p1, 0.5], [p2, 0.5]]},
            rate=30.0,
        )
        for part, p1, p2 in (
            ("right_arm", "forward_middle", "right_high"),
            ("left_arm", "left_middle", "place_high"),
            ("right_arm", "left_forward_high", "forward_low"),
            ("head", "forward_middle", "place_high"),
        )
    ]
    base = [serialize_score(encode_sequence(c, extract_keyframes(c))) for c in clips]
    failures = []
    for trial in range(100):
        i = trial % len(clips)
        R = random_rotation(rng)
        t = rng.normal(size=3) * 3.0
        moved = transform_sequence(clips[i], R, t)
        got = serialize_score(encode_sequence(moved, extract_keyframes(moved)))
        if got != base[i]:
            failures.append(trial)
    _report(5, "world-frame invariance, 100 rigid transforms", failures,
            time.perf_counter() - t0, 30.0)


def test_criterion_06_hardware_independence():
    t0 = time.perf_counter()
    score = load_score(os.path.join(DATA, "golden_frontal_score.json"))
    failures = []
    times_per_robot = []
    compared = 0
    for name in BUNDLED_ROBOTS:
        robot = load_robot(name)
        decoded = decode_score_detailed(score, robot)
        times = decoded.poses.times.tolist()
        times_per_robot.append(times)
        samples, joints = decoded.poses.samples.tolist(), decoded.poses.joints
        for s, (ref, seg, col) in enumerate(robot.segment_table):
            codes = decoded.codes[:, decoded.columns.index(col)].tolist()
            for i in np.flatnonzero(decoded.driven[:, s] & ~decoded.clamped[:, s]).tolist():
                compared += 1
                yaw, pitch = samples[i][joints.index(seg.yaw_joint)], samples[i][joints.index(seg.pitch_joint)]
                symbol = VALID_LIMB_SYMBOLS[codes[i]]
                back = VALID_LIMB_SYMBOLS[direction_codes(direction_vector(yaw, pitch))[0]]
                if back != symbol:
                    failures.append((name, times[i], ref, str(symbol), str(back)))
    if times_per_robot[0] != times_per_robot[1]:
        failures.append(("pose times differ", times_per_robot))
    if compared == 0:
        failures.append("nothing compared")
    _report(6, "hardware independence on two robots", failures, time.perf_counter() - t0, 10.0)


def test_criterion_07_boundary_gesture_clamping():
    t0 = time.perf_counter()
    robot = load_robot("frontal_7dof")
    outside = {D.Backward, D.LeftBackward, D.RightBackward}
    failures = []
    for code, sym in enumerate(VALID_LIMB_SYMBOLS):
        cols = tuple(
            LabanColumn(n, (Cell(code, 0.0, 1.0),)) for n in ("LeftArm", "RightArm", "Head")
        )
        decoded = decode_score_detailed(LabanScore(columns=cols, total_duration=1.0), robot)
        s, seg = next((s, seg) for s, (ref, seg, _) in enumerate(robot.segment_table) if ref == "right_arm/0")
        angles = dict(zip(decoded.poses.joints, decoded.poses.samples[0].tolist()))
        yaw, pitch, clamped = angles[seg.yaw_joint], angles[seg.pitch_joint], decoded.clamped[0, s].tolist()
        within = (
            seg.yaw_limits[0] <= yaw <= seg.yaw_limits[1]
            and seg.pitch_limits[0] <= pitch <= seg.pitch_limits[1]
        )
        if not within:
            failures.append((str(sym), "outside limits"))
        if sym.direction in outside:
            if not clamped or abs(yaw) != 90.0:
                failures.append((str(sym), "expected boundary clamp", yaw, clamped))
        elif clamped:
            failures.append((str(sym), "unexpected clamp"))
    _report(7, "boundary-gesture clamping, 26 symbols", failures, time.perf_counter() - t0, 10.0)


def _fd_velocity(keyposes, t, side, eps=2e-5):
    """Richardson-extrapolated one-sided FD velocity of the cubic interpolant,
    per joint."""
    f0, f1, f2 = (_rows_at(keyposes.times, keyposes.samples, "cubic", np.array([x]))[2][0]
                  for x in (t, t + side * eps / 2.0, t + side * eps))
    return side * (2.0 * (f1 - f0) / (eps / 2.0) - (f2 - f0) / eps)


def test_criterion_08_trajectory_exactness_and_stops():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    joints = ("a_pitch", "a_yaw", "b_pitch", "b_yaw")
    failures = []
    for trial in range(100):
        k = int(rng.integers(2, 7))
        # times in whole deciseconds, gaps >= 1 s, so a 10 Hz grid hits them
        gaps = rng.integers(10, 26, size=k - 1)
        times = np.concatenate([[0], np.cumsum(gaps)]) / 10.0
        keyposes = KeyPoses(times, joints, [rng.uniform(-170, 170, size=4) for _ in times])
        mode = "cubic" if trial % 2 == 0 else "linear"
        traj = synthesize(keyposes, None, None, mode, 10.0)
        by_t = {round(t, 9): row for t, row in zip(traj.times.tolist(), traj.samples.tolist())}
        for kt, angles in zip(keyposes.times.tolist(), keyposes.samples.tolist()):
            sample = by_t.get(round(kt, 9))
            if sample is None:
                failures.append((trial, "key time missing from grid", kt))
                continue
            for j, got, want in zip(joints, sample, angles):
                if abs(got - want) > 1e-9:
                    failures.append((trial, "endpoint error", j))
        if mode == "cubic":
            for i, kt in enumerate(keyposes.times.tolist()):
                sides = ([+1] if i == 0 else []) + ([-1] if i == len(keyposes) - 1 else [])
                if 0 < i < len(keyposes) - 1:
                    sides = [+1, -1]
                for side in sides:
                    worst = float(np.max(np.abs(_fd_velocity(keyposes, kt, side))))
                    if worst >= 1e-6:
                        failures.append((trial, "nonzero stop velocity", kt, worst))
    _report(8, "trajectory endpoint exactness and cubic stops", failures,
            time.perf_counter() - t0, 30.0)


def _observed(offset: float, wiggle: float):
    times = [i / 24.0 for i in range(25)]
    rows = [[40.0 * u + offset + wiggle * math.sin(math.pi * u), -30.0 * u + offset, 10.0 + 20.0 * u * u + offset]
            for u in times]
    return KeyPoses(times, ("p", "q", "r"), rows)


def test_criterion_09_dictionary_semantics():
    t0 = time.perf_counter()
    failures = []
    key = state_key(
        {"RightArm": S(D.Place, L.Low)}, {"RightArm": S(D.Forward, L.Middle)}
    )

    def build(observations):
        mdict = MotionDictionary()
        for obs in observations:
            dict_update(mdict, key, obs)
        return mdict

    # one clip replayed twice: one path, probability 1
    twice = build([_observed(0.0, 0.0), _observed(0.0, 0.0)])
    entry = twice.entries[key]
    if len(entry.paths) != 1 or entry.probabilities() != [1.0] or entry.paths[0].count != 2:
        failures.append(("replay", len(entry.paths), entry.probabilities()))

    # two dissimilar clips: two paths at 0.5 / 0.5
    dissim = build([_observed(0.0, 0.0), _observed(25.0, 15.0)])
    entry = dissim.entries[key]
    if len(entry.paths) != 2 or entry.probabilities() != [0.5, 0.5]:
        failures.append(("dissimilar", len(entry.paths), entry.probabilities()))

    # bit-identical serialization across repeated builds
    obs = [_observed(0.0, 0.0), _observed(25.0, 15.0), _observed(0.1, 0.0)]
    if serialize_dictionary(build(obs)) != serialize_dictionary(build(obs)):
        failures.append("serialization not bit-identical")

    # full-pipeline replay: same synthetic clip observed twice via a robot
    robot = load_robot("frontal_7dof")
    seq = synth_motion(
        {"pattern": "reach_sequence", "part": "right_arm",
         "poses": [["place_low", 0.6], ["forward_middle", 0.5]]},
        rate=30.0,
    )
    kfs = extract_keyframes(seq)
    columns = tuple(sorted(robot.column_map))
    states = [{col: VALID_LIMB_SYMBOLS[code] for col, code in zip(columns, row)}
              for row in encode_poses(seq.positions[kfs.merged], columns).tolist()]
    mdict = MotionDictionary()
    for _ in range(2):
        for k, (a, b) in enumerate(zip(kfs.merged, kfs.merged[1:])):
            k2 = state_key(states[k], states[k + 1])
            dict_update(mdict, k2, project_path(seq, a, b, robot))
    for k2, entry in mdict.entries.items():
        if len(entry.paths) != 1 or entry.probabilities() != [1.0]:
            failures.append(("pipeline replay", str(k2), entry.probabilities()))
    _report(9, "dictionary update and probability semantics", failures,
            time.perf_counter() - t0, 10.0)


def test_criterion_10_score_format_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    failures = []
    for trial in range(500):
        score = random_score(rng)
        if validate(score):
            failures.append((trial, "generator produced invalid score"))
            continue
        back = parse_score(serialize_score(score))
        if back != score:
            failures.append((trial, "roundtrip mismatch"))
    goldens = sorted(glob.glob(os.path.join(DATA, "golden_*.json")))
    if not goldens:
        failures.append("no golden files")
    for path in goldens:
        text = open(path).read()
        score = parse_score(text)
        if serialize_score(score) != text:
            failures.append((path, "golden not canonical"))
        if parse_score(serialize_score(score)) != score:
            failures.append((path, "golden roundtrip mismatch"))
    _report(10, "score format round-trip, 500 random + goldens", failures,
            time.perf_counter() - t0, 30.0)
