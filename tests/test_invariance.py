"""Observation invariances on seeded synthetic reach clips: what the key-frame
detector and the encoder read from a clip does not change when the performer
is mirrored left for right, nor when the clip is sampled four times as often.
A new key-frame or encoding rule that breaks either fails here."""

import numpy as np
import pytest

from labanmotion.encoder import encode_sequence
from labanmotion.keyframe import extract_keyframes
from labanmotion.laban import SYMBOL_CODES, VALID_LIMB_SYMBOLS, Direction, LabanSymbol
from labanmotion.skeleton import ALL_JOINTS, JOINT_INDEX, JointName, SkeletonSequence, resample, synth_motion

from conftest import POSE_NAMES

SEEDS = range(12)


def _swap_sides(name: str) -> str:
    """``name`` with Left and Right exchanged: a joint, column or direction."""
    return name.replace("Left", "\0").replace("Right", "Left").replace("\0", "Right")


def _descriptor(seed: int) -> dict:
    """Six right-arm stops of 0.5 s each, no stop the same pose as the one before.
    Synth poses point at sector and band centres, never at an edge."""
    rng = np.random.default_rng(seed)
    names = [str(rng.choice(POSE_NAMES))]
    while len(names) < 6:
        name = str(rng.choice(POSE_NAMES))
        if name != names[-1]:
            names.append(name)
    return {"pattern": "reach_sequence", "part": "right_arm", "poses": [[name, 0.5] for name in names]}


def _observe(seq: SkeletonSequence):
    kfs = extract_keyframes(seq)
    return kfs, encode_sequence(seq, kfs)


def _mirror(seq: SkeletonSequence) -> SkeletonSequence:
    """The clip reflected through the body's sagittal plane: y becomes -y,
    and each left joint takes the path of its right twin."""
    twin = [JOINT_INDEX[JointName(_swap_sides(j.value))] for j in ALL_JOINTS]
    positions = seq.positions[:, twin] * np.array([1.0, -1.0, 1.0])
    return SkeletonSequence(seq.times, positions, seq.sample_rate)


def _mirror_code(code: int) -> int:
    symbol = VALID_LIMB_SYMBOLS[code]
    return SYMBOL_CODES[LabanSymbol(Direction(_swap_sides(symbol.direction.value)), symbol.level)]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_mirrored_clip_gives_the_same_key_frames_and_the_mirrored_score(seed):
    seq = synth_motion(_descriptor(seed), rate=30.0)
    kfs, score = _observe(seq)
    mirrored_kfs, mirrored_score = _observe(_mirror(seq))
    assert mirrored_kfs.merged == kfs.merged
    assert {JointName(_swap_sides(p.value)): v for p, v in mirrored_kfs.per_part.items()} == kfs.per_part
    want = {_swap_sides(name): [(_mirror_code(c.code), c.start, c.duration) for c in cells]
            for name, cells in score.columns}
    assert {name: [tuple(c) for c in cells] for name, cells in mirrored_score.columns} == want
    assert len(score.columns) == 3 and any(name == "RightArm" and len(cells) > 3 for name, cells in score.columns)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_clip_at_120_hz_gives_the_codes_it_gives_at_30_hz(seed):
    descriptor = _descriptor(seed)
    scores = [_observe(resample(synth_motion(descriptor, rate=rate), rate))[1] for rate in (30.0, 120.0)]
    codes = [{name: [c.code for c in cells] for name, cells in score.columns} for score in scores]
    assert codes[1] == codes[0]
    assert len(codes[0]["RightArm"]) > 3
