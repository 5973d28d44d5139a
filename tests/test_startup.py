"""Start-up cost and the records that keep it small.

Importing the CLI and loading a robot loads no module beyond what
``import argparse, json, numpy`` loads, other than the package itself: the
records are NamedTuples or plain classes rather than dataclasses, whose
methods are compiled when a module defining them is imported, and logging
loads only when a decode writes a warning. The records keep the semantics
they had as dataclasses: value equality, hashes of the field tuple,
read-only fields and cached properties.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import labanmotion
from labanmotion import trajectory
from labanmotion.errors import TimeOrderError
from labanmotion.keyframe import EnergyParams
from labanmotion.laban import SYMBOL_CODES, Cell, Direction, LabanColumn, LabanScore, LabanSymbol, Level, Violation, \
    load_score, parse_score, serialize_score
from labanmotion.robot import Chain, FixedJoint, KeyPoses, RobotDescription, Segment, load_robot
from labanmotion.trajectory import DictEntry, DictPath, MotionDictionary, dict_key, parse_dictionary, \
    serialize_dictionary

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_frontal_score.json")
# the directory the package was imported from: src/ in a checkout, site-packages when installed
PACKAGE_PARENT = os.path.dirname(os.path.dirname(labanmotion.__file__))


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``code`` on the package this test imported."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT), timeout=120)


# what bench/run.py times as set-up, after what every numpy command line loads
_FOOTPRINT = """
import sys
import argparse, json, numpy
bare = set(sys.modules)
import labanmotion.cli
from labanmotion import robot
robot.load_robot("frontal_7dof")
package = [m for name, m in sys.modules.items() if name.split(".")[0] == "labanmotion"]
print(json.dumps({
    "added": sorted(set(sys.modules) - bare),
    "dataclasses": sorted(f"{m.__name__}.{name}" for m in package for name, obj in vars(m).items()
                          if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")),
}))
"""


def test_importing_the_cli_and_loading_a_robot_adds_only_the_package():
    proc = _python(_FOOTPRINT)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert [m for m in found["added"] if m != "__future__" and m.split(".")[0] != "labanmotion"] == []
    assert "labanmotion.cli" in found["added"]
    assert found["dataclasses"] == []


# runs the CLI and writes "logging" to stdout if the run imported it
_DECODE = """
import sys
from labanmotion import cli
rc = cli.main(sys.argv[1:])
sys.stdout.write("logging" if "logging" in sys.modules else "")
sys.exit(rc)
"""


@pytest.mark.parametrize("robot, stderr", [
    (os.path.join(DATA, "partial_frontal.json"),
     "score column Head not mapped on robot partial_frontal; ignored\n"
     "score column LeftArm not mapped on robot partial_frontal; ignored\n"),
    ("frontal_7dof", ""),
], ids=["partial", "full"])
def test_unmapped_score_columns_are_warned_about_on_stderr(tmp_path, robot, stderr):
    """A decode that ignores score columns names each on stderr and exits 0;
    one that maps every column writes nothing there and never loads logging."""
    proc = _python(_DECODE, "decode", GOLDEN, "--robot", robot, "-o", str(tmp_path / "t.csv"))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, stderr, "logging" if stderr else "")
    assert (tmp_path / "t.csv").stat().st_size > 0


# runs the CLI and prints the modules the run loaded after start-up
_RUN_MODULES = """
import json, sys
from labanmotion import cli
before = set(sys.modules)
rc = cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
sys.exit(rc)
"""


def test_a_decode_loads_no_numpy_module_after_start_up(tmp_path):
    """A decode loads no numpy module that start-up did not: not numpy.ma,
    which ``np.unique`` imports on its first call (about 1 MB of module
    objects in every decoding process)."""
    proc = _python(_RUN_MODULES, "decode", GOLDEN, "--robot", "frontal_7dof", "-o", str(tmp_path / "t.csv"))
    assert proc.returncode == 0, proc.stderr
    assert [m for m in json.loads(proc.stdout) if m.split(".")[0] == "numpy"] == []


_SYMBOL = LabanSymbol(Direction.LeftForward, Level.High)
# (record, its fields in order) for each formerly frozen record
_FROZEN = [
    (_SYMBOL, ("direction", "level")),
    (Cell(SYMBOL_CODES[_SYMBOL], 0.5, 1.25), ("code", "start", "duration")),
    (LabanColumn("Head", (Cell(SYMBOL_CODES[_SYMBOL], 0.0, 1.0),)), ("name", "cells")),
    (LabanScore((LabanColumn("Head", ()),), 2.0, (("k", "v"),)), ("columns", "total_duration", "meta")),
    (Violation("overlap", "Head", 2, "cells 1 and 2 overlap"), ("rule", "column", "cell", "detail")),
    (Segment("y", "p", (-90.0, 90.0), (-45.0, 45.0), "r", (-10.0, 10.0)),
     ("yaw_joint", "pitch_joint", "yaw_limits", "pitch_limits", "roll_joint", "roll_limits")),
    (Chain("arm", ()), ("name", "segments")),
    (FixedJoint("base", (-30.0, 30.0)), ("name", "limits")),
    (RobotDescription("r", (), {}, ()), ("name", "chains", "column_map", "fixed_joints")),
    (EnergyParams(), ("sigma", "prominence", "min_separation", "merge_window", "peak_mode")),
]


@pytest.mark.parametrize("record, fields", _FROZEN, ids=[type(record).__name__ for record, _ in _FROZEN])
def test_record_fields_are_read_only(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("make, fields", [
    (lambda: LabanSymbol(Direction.Left, Level.Low), ("direction", "level")),
    (lambda: Cell(SYMBOL_CODES[LabanSymbol(Direction.Left, Level.Low)], 0.5, 1.25), ("code", "start", "duration")),
    (lambda: Violation("overlap", "Head", 2, "cells 1 and 2 overlap"), ("rule", "column", "cell", "detail")),
    (lambda: Segment("y", "p", (-90.0, 90.0), (-45.0, 45.0)),
     ("yaw_joint", "pitch_joint", "yaw_limits", "pitch_limits", "roll_joint", "roll_limits")),
], ids=["LabanSymbol", "Cell", "Violation", "Segment"])
def test_equal_records_are_equal_and_hash_as_their_field_tuple(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


@pytest.mark.parametrize("name", ["golden_frontal_score", "golden_backward_score", "golden_minimal_score",
                                  "golden_split_score"])
def test_a_serialized_score_parses_to_an_equal_score(name):
    score = load_score(os.path.join(DATA, f"{name}.json"))
    again = parse_score(serialize_score(score))
    assert again == score and again is not score
    assert hash(again) == hash(score)


def test_cached_properties_are_built_once_per_record():
    score = load_score(GOLDEN)
    robot = load_robot("frontal_7dof")
    cached = [(score, "violations")]
    cached += [(robot, name) for name in ("segment_table", "mapped_columns", "neutral_angles", "symbol_table")]
    for record, name in cached:
        first = getattr(record, name)
        assert getattr(record, name) is first, name
        assert vars(record)[name] is first, name


def _dictionary_text(n_paths: int) -> str:
    """A dictionary of n_paths paths of two joints, five per key."""
    rng = np.random.default_rng(5)
    entries = {}
    for i in range(n_paths):
        key = dict_key(("RightArm",), (i // 5,), (25,))
        path = KeyPoses(np.linspace(0.0, 1.0, trajectory.PATH_SAMPLES), ("a", "b"),
                        rng.uniform(-90.0, 90.0, (trajectory.PATH_SAMPLES, 2)))
        entries.setdefault(key, DictEntry()).paths.append(DictPath(path, 1 + i % 3))
    return serialize_dictionary(MotionDictionary(entries=entries))


def test_loaded_dictionary_paths_share_one_read_only_times_array(monkeypatch):
    """Every loaded path shares one read-only array of normalized times, and
    its order is checked like any KeyPoses' times: one ``np.diff`` per path.
    Each path's own data (joints, shape, finite angles) is checked too."""
    text = _dictionary_text(50)
    checks = []
    diff = np.diff
    monkeypatch.setattr(np, "diff", lambda *a, **kw: checks.append(1) or diff(*a, **kw))
    mdict = parse_dictionary(text)
    assert sum(len(entry.paths) for entry in mdict.entries.values()) == 50
    assert len(checks) == 50
    assert all(p.motion.times is trajectory._PATH_TIMES for e in mdict.entries.values() for p in e.paths)
    assert not trajectory._PATH_TIMES.flags.writeable
    with pytest.raises(TimeOrderError):
        KeyPoses(trajectory._PATH_TIMES[::-1], ("a",), np.zeros((trajectory.PATH_SAMPLES, 1)))
