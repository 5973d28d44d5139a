"""SHA-256 digests of the CLI's output files, pinned byte for byte.

Each case runs one or more commands through ``cli.main`` and digests their
exit codes, stdout, ``error:`` lines and written files in order. The table
covers ``pipeline`` on two synthetic reach clips (both bundled robots, both
column modes, both interpolation modes), ``decode`` and ``roundtrip`` of the
golden scores, ``decode --dict`` after a ``dict build`` of the clips (on a robot that maps
only one of the score's columns too),
``keyframes`` on the clips with non-default detector settings, a robot
written here whose segments take split columns, one of them feeding two
segments, and two robots that feed one segment from several columns, which
every command refuses. A change meant to alter an output updates its digest
deliberately; print the current table with

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from labanmotion import robot as robot_mod
from labanmotion.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDENS = ("backward", "frontal", "minimal", "split")

CLIPS = {
    "reach_right": ["--part", "right_arm", "--pose", "place_low:0.6", "--pose", "forward_middle:0.7",
                    "--pose", "right_high:0.6", "--pose", "left_backward_low:0.6", "--pose", "place_low:0.6"],
    "reach_left": ["--part", "left_arm", "--pose", "place_low:0.5", "--pose", "left_middle:0.6",
                   "--pose", "backward_high:0.6", "--pose", "forward_low:0.5", "--pose", "place_high:0.6"],
}

# refused at load: LeftArm, RightArm and Head all feed one torso segment
MERGE_ARM_ROBOT = """
{"name": "merge_arm",
 "chains": [{"name": "torso", "segments": [
              {"yaw_joint": "t_yaw", "pitch_joint": "t_pitch", "yaw_limits": [-120, 120],
               "pitch_limits": [-60, 80], "roll_joint": "t_roll", "roll_limits": [10, 40]}]},
            {"name": "right_arm", "segments": [
              {"yaw_joint": "r_yaw", "pitch_joint": "r_pitch", "yaw_limits": [-90, 90],
               "pitch_limits": [-90, 90]}]}],
 "column_map": {"LeftArm": ["torso/0"], "RightArm": ["torso/0", "right_arm/0"], "Head": ["torso/0"]},
 "fixed_joints": [{"name": "base", "limits": [-30, -5]}]}
"""

# refused at load: the upper arm and forearm columns both feed arm/0
MERGE_SPLIT_ROBOT = """
{"name": "merge_split",
 "chains": [{"name": "arm", "segments": [
              {"yaw_joint": "a_yaw", "pitch_joint": "a_pitch", "yaw_limits": [-180, 180],
               "pitch_limits": [-90, 90]},
              {"yaw_joint": "w_yaw", "pitch_joint": "w_pitch", "yaw_limits": [-45, 45],
               "pitch_limits": [-30, 30], "roll_joint": "w_roll", "roll_limits": [-90, 90]}]},
            {"name": "head", "segments": [
              {"yaw_joint": "h_yaw", "pitch_joint": "h_pitch", "yaw_limits": [-90, 90],
               "pitch_limits": [-90, 90]}]}],
 "column_map": {"RightUpperArm": ["arm/0"], "RightForearm": ["arm/0", "arm/1"], "Head": ["head/0"]}}
"""

# split columns, one per segment: the right upper arm and forearm on their
# own segments, the forearm also driving a narrow wrist, and the head
SPLIT_ARMS_ROBOT = """
{"name": "split_arms",
 "chains": [{"name": "right_arm", "segments": [
              {"yaw_joint": "u_yaw", "pitch_joint": "u_pitch", "yaw_limits": [-180, 180],
               "pitch_limits": [-90, 90]},
              {"yaw_joint": "f_yaw", "pitch_joint": "f_pitch", "yaw_limits": [-120, 120],
               "pitch_limits": [-60, 80], "roll_joint": "f_roll", "roll_limits": [10, 40]},
              {"yaw_joint": "w_yaw", "pitch_joint": "w_pitch", "yaw_limits": [-45, 45],
               "pitch_limits": [-30, 30], "roll_joint": "w_roll", "roll_limits": [-90, 90]}]},
            {"name": "head", "segments": [
              {"yaw_joint": "h_yaw", "pitch_joint": "h_pitch", "yaw_limits": [-90, 90],
               "pitch_limits": [-90, 90]}]}],
 "column_map": {"RightUpperArm": ["right_arm/0"], "RightForearm": ["right_arm/1", "right_arm/2"],
                "Head": ["head/0"]},
 "fixed_joints": [{"name": "base", "limits": [-30, -5]}]}
"""

# opposed upper-arm and forearm directions, some beyond the wrist's limits
CANCEL_SCORE = """
{"columns": [
  {"cells": [{"dir": "Forward", "duration": 1.0, "level": "Middle", "start": 0.0},
             {"dir": "Left", "duration": 1.0, "level": "Middle", "start": 1.0},
             {"dir": "Forward", "duration": 1.5, "level": "High", "start": 2.0}], "name": "RightUpperArm"},
  {"cells": [{"dir": "Backward", "duration": 1.0, "level": "Middle", "start": 0.0},
             {"dir": "Right", "duration": 1.0, "level": "Middle", "start": 1.0},
             {"dir": "Backward", "duration": 1.5, "level": "Low", "start": 2.0}], "name": "RightForearm"},
  {"cells": [{"dir": "Place", "duration": 3.5, "level": "High", "start": 0.0}], "name": "Head"}],
 "meta": {}, "total_duration": 3.5}
"""

ROBOTS = ("frontal_7dof", "lab_9dof")

# detector settings away from the defaults: no filtering at all, minima,
# narrow smoothing, and wide clusters under a long separation bound
KEYFRAME_SETTINGS = {
    "unfiltered": ["--prominence", "0", "--min-sep", "0"],
    "min": ["--peak-mode", "min"],
    "sigma-0.03": ["--sigma", "0.03"],
    "wide-merge": ["--merge-window", "0.6", "--min-sep", "1"],
}


def _cases() -> dict[str, list[list[str]]]:
    """Case name -> commands; ``{i}`` is the input directory that
    :func:`_setup` fills, ``{w}`` the case's own output directory and
    ``{data}`` the golden directory."""
    cases: dict[str, list[list[str]]] = {}
    for clip in CLIPS:
        for robot in ROBOTS:
            for columns in ("arm", "split"):
                for interp in ("linear", "cubic"):
                    cases[f"pipeline-{clip}-{robot}-{columns}-{interp}"] = [[
                        "pipeline", f"{{i}}/{clip}.json", "--robot", robot, "--columns", columns,
                        "--interp", interp, "-o", "{w}",
                    ]]
        for robot, columns in (("{i}/merge_arm.json", "arm"), ("{i}/merge_split.json", "split"),
                               ("{i}/split_arms.json", "split")):
            name = os.path.basename(robot).removesuffix(".json")
            cases[f"pipeline-{clip}-{name}-cubic"] = [[
                "pipeline", f"{{i}}/{clip}.json", "--robot", robot, "--columns", columns,
                "--interp", "cubic", "--traj-rate", "50", "-o", "{w}",
            ]]
        for name, flags in KEYFRAME_SETTINGS.items():
            cases[f"keyframes-{clip}-{name}"] = [["keyframes", f"{{i}}/{clip}.json", *flags, "-o", "{w}/kf.json"]]
    for robot in ROBOTS + ("{i}/merge_arm.json", "{i}/merge_split.json", "{i}/split_arms.json"):
        name = os.path.basename(robot).removesuffix(".json")
        for golden in GOLDENS:
            score = f"{{data}}/golden_{golden}_score.json"
            cases[f"decode-{golden}-{name}"] = [["decode", score, "--robot", robot, "-o", "{w}/t.csv"]]
            cases[f"roundtrip-{golden}-{name}"] = [["roundtrip", score, "--robot", robot]]
    for name in ("merge_split", "split_arms"):
        cases[f"decode-cancel-{name}"] = [["decode", "{i}/cancel.json", "--robot", f"{{i}}/{name}.json",
                                           "--interp", "cubic", "--rate", "40", "-o", "{w}/t.csv"]]
    for robot in ROBOTS + ("{i}/merge_arm.json", "{i}/split_arms.json", "{data}/partial_frontal.json"):
        name = os.path.basename(robot).removesuffix(".json")
        columns = "split" if name == "split_arms" else "arm"
        steps = [["dict", "build", *(f"{{i}}/{clip}.json" for clip in CLIPS), "--robot", robot,
                  "-o", "{w}/dict.json"]]
        for clip in CLIPS:
            for interp in ("linear", "cubic"):
                steps.append(["decode", f"{{i}}/{clip}-{columns}.json", "--robot", robot, "--dict", "{w}/dict.json",
                              "--interp", interp, "-o", f"{{w}}/{clip}-{interp}.csv"])
        cases[f"dict-decode-{name}"] = steps
    return cases


# the dictionary itself keeps full precision; only the 6-decimal CSVs are pinned
_UNPINNED = {"dict.json"}


def _setup(inputs: str) -> None:
    for name, text in (("merge_arm", MERGE_ARM_ROBOT), ("merge_split", MERGE_SPLIT_ROBOT),
                       ("split_arms", SPLIT_ARMS_ROBOT), ("cancel", CANCEL_SCORE)):
        with open(os.path.join(inputs, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    for clip, flags in CLIPS.items():
        path = os.path.join(inputs, f"{clip}.json")
        assert main(["synth", "reach_sequence", *flags, "-o", path]) == 0
        for columns in ("arm", "split"):
            score = os.path.join(inputs, f"{clip}-{columns}.json")
            assert main(["encode", path, "--columns", columns, "-o", score]) == 0


def _digest(inputs: str, steps: list[list[str]]) -> str:
    """Digest of the steps' exit codes, stdout and ``error:`` lines, then of
    the files they wrote into a fresh output directory."""
    out_dir = tempfile.mkdtemp(dir=inputs)
    digest = hashlib.sha256()
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([a.format(i=inputs, w=out_dir, data=DATA) for a in argv])
        errors = [ln for ln in err.getvalue().splitlines() if "error:" in ln]
        digest.update(repr((rc, out.getvalue(), errors)).encode())
    written = {os.path.relpath(os.path.join(root, f), out_dir)
               for root, _, files in os.walk(out_dir) for f in files}
    for rel in sorted(written - _UNPINNED):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            digest.update(rel.encode() + b"\0" + fh.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pinned"))
    _setup(path)
    return path


PINNED = {
    "decode-backward-frontal_7dof": "6ad11979a7a6548355ae1cc9a4789fa7c2a9979db913f11e01cff4a6d9783c63",
    "decode-backward-lab_9dof": "548436a8910e690beae82b2d2a8bc400109a271b4c56023e40490923ad203ee6",
    "decode-backward-merge_arm": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "decode-backward-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "decode-backward-split_arms": "ceb7c12db92638dc5c7bdbcd317d6b0bf7c77c43ecc4265f66900ee2601753ff",
    "decode-cancel-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "decode-cancel-split_arms": "3c6aa0ef50972b620f3b704c4b4d6e15dbb343462d06e8a951e6af3004e14e7d",
    "decode-frontal-frontal_7dof": "1197b2c245ea78e6ec12cb60a13c55744167c0e8411719459448486fade40d5b",
    "decode-frontal-lab_9dof": "676ae15145ef838a042a6be1d96edbe7150abd02db1aca8e282c566f2f5d260a",
    "decode-frontal-merge_arm": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "decode-frontal-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "decode-frontal-split_arms": "ceb7c12db92638dc5c7bdbcd317d6b0bf7c77c43ecc4265f66900ee2601753ff",
    "decode-minimal-frontal_7dof": "81201435676df2c0868ba0f53c66d7473c4fc59fe1f28e1172460dc241c1ed49",
    "decode-minimal-lab_9dof": "81201435676df2c0868ba0f53c66d7473c4fc59fe1f28e1172460dc241c1ed49",
    "decode-minimal-merge_arm": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "decode-minimal-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "decode-minimal-split_arms": "ceb7c12db92638dc5c7bdbcd317d6b0bf7c77c43ecc4265f66900ee2601753ff",
    "decode-split-frontal_7dof": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "decode-split-lab_9dof": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "decode-split-merge_arm": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "decode-split-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "decode-split-split_arms": "686eb13346d0aad20b79d2481a153765044da1735fcf4e9cf03c6d801462cdae",
    "dict-decode-frontal_7dof": "9b4f6e2e9e174e73b52b0ff59a7d444eb776d2ecd6158fc1d4b28141beb58d7f",
    "dict-decode-lab_9dof": "ff2808e0689a6a430cfe90ea5ad60cef414a2e8e2941c8c8685a7d7e8e1bddba",
    "dict-decode-merge_arm": "7b187e1298eb6a55e7cdd8094727963c0cdb8a8e4ac6a64da40ea784b56675c1",
    "dict-decode-partial_frontal": "e038d5fda429a196fa5b0d9cd43f114396bc1d43f29c3e1f52185ed471cafd8e",
    "dict-decode-split_arms": "77ede5696b9b48f71f52d6c99361ce815456128bac3496c90e67ca31d50de445",
    "keyframes-reach_left-min": "769ae4847557605ad5a4839e9bb1e4c20e75e6096e6692770948fe1ee5fe5ee4",
    "keyframes-reach_left-sigma-0.03": "91fd3392ae2b5406c4bed77c8fdabef7ee1be1290339ef8bf1e91b168244fcef",
    "keyframes-reach_left-unfiltered": "b27a1266967e3af927b2dce71bc910b2cf2df413312db0dcce1d0071d63daf7f",
    "keyframes-reach_left-wide-merge": "5d21c68f0ee40667c6225de42e598a610d41f1e2d88a8447a5387ed0ac61f712",
    "keyframes-reach_right-min": "497271d17a03aaaaefe18cb27f72d6adb5947675f9a5f3975fdcd80ffba240ba",
    "keyframes-reach_right-sigma-0.03": "1da0fe9f413445bba93a907846a6b69acdc6ed35ef43e415ce138a6fda36a89d",
    "keyframes-reach_right-unfiltered": "b058b1879f04855f9b0de53e864b190d164b381c5d72ad233eb2861ed1b5e588",
    "keyframes-reach_right-wide-merge": "2ead879467d53c97ad96034638fc3a9545d5361aa8367e03e26471b2f9154901",
    "pipeline-reach_left-frontal_7dof-arm-cubic": "fb681d8c9322338423b1459948c32d5cb9c8c1173f9a369d59f70fcebace547e",
    "pipeline-reach_left-frontal_7dof-arm-linear": "04c72eb984944a6ea5de8758ba208e542ce4046903121ab03e9cdd10eaf7e243",
    "pipeline-reach_left-frontal_7dof-split-cubic": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "pipeline-reach_left-frontal_7dof-split-linear": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "pipeline-reach_left-lab_9dof-arm-cubic": "79883e5eac269146c6a2ea617de1232896a6d88321c5945243beb0ef22e03a7a",
    "pipeline-reach_left-lab_9dof-arm-linear": "942ff38f58d09917b2f7ad3f09b24b4c2da0824ce14d1d34c49576f02ce7759c",
    "pipeline-reach_left-lab_9dof-split-cubic": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "pipeline-reach_left-lab_9dof-split-linear": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "pipeline-reach_left-merge_arm-cubic": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "pipeline-reach_left-merge_split-cubic": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "pipeline-reach_left-split_arms-cubic": "35f29c69a26d766b361480ac4cee998a835d9b2c61246cd59c66b7b44f68b77d",
    "pipeline-reach_right-frontal_7dof-arm-cubic": "3e470a6cee12747ffff2d57c840963855ec9a924e8b6af52a7c099fcf3673ed3",
    "pipeline-reach_right-frontal_7dof-arm-linear": "7a87c81d486fd6d66a91808595fc56d1902136275364674028fe421a2b9e002b",
    "pipeline-reach_right-frontal_7dof-split-cubic": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "pipeline-reach_right-frontal_7dof-split-linear": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "pipeline-reach_right-lab_9dof-arm-cubic": "eee30355957c3c84043a189607ee40ca95c37c686fe9a2e08a8fb9d970df9e3c",
    "pipeline-reach_right-lab_9dof-arm-linear": "7a4b3c5dd6a687d90083d44474884f23b4c46a9d5f47ae2e6b1ac9eefc7ee107",
    "pipeline-reach_right-lab_9dof-split-cubic": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "pipeline-reach_right-lab_9dof-split-linear": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "pipeline-reach_right-merge_arm-cubic": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "pipeline-reach_right-merge_split-cubic": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "pipeline-reach_right-split_arms-cubic": "56192319ff2db589b2d7566771c6cd00a4e563d06febffa3638fdd5ee0a13398",
    "roundtrip-backward-frontal_7dof": "ef3b373b838766e35696bd24a2f53f53fb64a221b18e05cd020acfd27e4942d7",
    "roundtrip-backward-lab_9dof": "61e97e3db97d7102461d4db005308876822bae92d762ff2a2eed0347557bc5c3",
    "roundtrip-backward-merge_arm": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "roundtrip-backward-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "roundtrip-backward-split_arms": "ceb7c12db92638dc5c7bdbcd317d6b0bf7c77c43ecc4265f66900ee2601753ff",
    "roundtrip-frontal-frontal_7dof": "f93d1a92ce28f66f484cb8e3fa2419556d0c3ef69b018ece88589ab710173a5c",
    "roundtrip-frontal-lab_9dof": "c04724a85892eb3d74d02e333d1c649ee9000289efd1c1089bba24493c2be2a7",
    "roundtrip-frontal-merge_arm": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "roundtrip-frontal-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "roundtrip-frontal-split_arms": "ceb7c12db92638dc5c7bdbcd317d6b0bf7c77c43ecc4265f66900ee2601753ff",
    "roundtrip-minimal-frontal_7dof": "81201435676df2c0868ba0f53c66d7473c4fc59fe1f28e1172460dc241c1ed49",
    "roundtrip-minimal-lab_9dof": "81201435676df2c0868ba0f53c66d7473c4fc59fe1f28e1172460dc241c1ed49",
    "roundtrip-minimal-merge_arm": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "roundtrip-minimal-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "roundtrip-minimal-split_arms": "ceb7c12db92638dc5c7bdbcd317d6b0bf7c77c43ecc4265f66900ee2601753ff",
    "roundtrip-split-frontal_7dof": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "roundtrip-split-lab_9dof": "c0e57c93def1cd5ea170f3b9122cdec96705aed4bcc7ed98030c6c4f8ad4804e",
    "roundtrip-split-merge_arm": "8523c76f62e9b5655a2a4240f9af38fe08410597b9ebd018f689d40a064ba90a",
    "roundtrip-split-merge_split": "0884d26d19d51692324feae129d4464af94093def129283f801de04408df3c3b",
    "roundtrip-split-split_arms": "b0323a9ace951a8c607af040178e3a2df1c2131f4468c363bbe90a2cac4ac5b0",
}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_outputs_are_pinned(inputs, case):
    assert _digest(inputs, _cases()[case]) == PINNED[case]


def test_no_command_reads_the_per_pose_views(inputs, tmp_path, monkeypatch):
    """Every command gives the same outputs while indexing a decode or a set
    of key poses raises: the views that remain for the benchmark are built by
    no command. ``synth`` and ``encode`` remake the inputs, and ``dict stats``
    reads a dictionary that ``dict build`` writes."""
    def no_view(self, i):
        raise AssertionError(f"{type(self).__name__}[{i}] read")

    stats = [["dict", "build", *(f"{{i}}/{clip}.json" for clip in CLIPS), "--robot", "{i}/split_arms.json",
              "-o", "{w}/dict.json"], ["dict", "stats", "{w}/dict.json"]]
    unpatched = _digest(inputs, stats)
    monkeypatch.setattr(robot_mod.DecodedScore, "__getitem__", no_view)
    monkeypatch.setattr(robot_mod.KeyPoses, "__getitem__", no_view)
    _setup(str(tmp_path))
    for name in sorted(os.listdir(inputs)):
        if name.endswith(".json"):
            assert (tmp_path / name).read_bytes() == open(os.path.join(inputs, name), "rb").read(), name
    assert _digest(inputs, stats) == unpatched
    for case, steps in sorted(_cases().items()):
        assert _digest(inputs, steps) == PINNED[case], case


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _setup(tmp)
        print("PINNED = {")
        for name, steps in sorted(_cases().items()):
            print(f'    "{name}": "{_digest(tmp, steps)}",')
        print("}")
