"""The exit contract as a property of the score readers: whatever a score
file holds, ``decode`` and ``roundtrip`` exit 0 or 1, never 2 (an internal
error), and print at most one ``error:`` line.

The inputs are seeded mutations of the four golden scores: numbers swapped
for values a reader must refuse or convert, unknown tokens, deleted keys and
deleted bytes. Each runs through ``cli.main`` in process, so a numpy
RuntimeWarning is an error here too (``filterwarnings`` in pyproject.toml).
"""

import glob
import json
import os
import random
import re

from labanmotion import cli
from labanmotion.robot import BUNDLED_ROBOTS

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = sorted(glob.glob(os.path.join(DATA, "golden_*_score.json")))

_NUMBER = re.compile(r"(?<=: )-?\d[\d.eE+-]*")
_NUMBER_SWAPS = ("1e400", "-0", "NaN", "true", "null", '"1"')
_TOKEN = re.compile(r'"(?:dir|level|name)": "([^"]*)"')
_UNKNOWN_TOKENS = ("Up", "Mid", "forward", "High", "Forward", "Tail", "", "Place.Low")


def _swap_number(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_NUMBER.finditer(text)))
    return text[:m.start()] + rng.choice(_NUMBER_SWAPS) + text[m.end():]


def _unknown_token(rng: random.Random, text: str) -> str:
    m = rng.choice(list(_TOKEN.finditer(text)))
    return text[:m.start(1)] + rng.choice(_UNKNOWN_TOKENS) + text[m.end(1):]


def _delete_key(rng: random.Random, text: str) -> str:
    obj = json.loads(text)
    objects, stack = [], [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            objects += [(node, key) for key in node]
            stack += node.values()
        elif isinstance(node, list):
            stack += node
    node, key = rng.choice(objects)
    del node[key]
    return json.dumps(obj)


def _delete_bytes(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text))
        text = text[:i] + text[i + rng.randint(1, 4):]
    return text


MUTATIONS = {"number": _swap_number, "token": _unknown_token, "key": _delete_key, "bytes": _delete_bytes}


def test_mutated_scores_exit_0_or_1_with_at_most_one_error_line(tmp_path, capsys):
    rng = random.Random(23)
    goldens = [open(path, encoding="utf-8").read() for path in GOLDEN]
    assert len(goldens) == 4
    score, csv = str(tmp_path / "score.json"), str(tmp_path / "t.csv")
    exits = {kind: set() for kind in MUTATIONS}
    for case in range(200):
        kind = rng.choice(sorted(MUTATIONS))
        text = MUTATIONS[kind](rng, rng.choice(goldens))
        with open(score, "w", encoding="utf-8") as fh:
            fh.write(text)
        robot = rng.choice(sorted(BUNDLED_ROBOTS))
        for argv in (["decode", score, "--robot", robot, "-o", csv], ["roundtrip", score, "--robot", robot]):
            rc = cli.main(argv)
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert rc in (0, 1) and len(errors) <= 1, (case, kind, argv[0], rc, err, text[:2000])
            exits[kind].add(rc)
    # every kind of mutation made some score that a reader refused
    assert all(1 in seen for seen in exits.values()), exits
    assert any(0 in seen for seen in exits.values()), exits
