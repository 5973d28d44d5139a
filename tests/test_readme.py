"""README's Library example runs against the package: a name deleted from the
library but still used in the README fails here."""

import os
import re

from labanmotion.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_the_library_example_runs_on_a_synth_clip(tmp_path, monkeypatch):
    with open(README, encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)  # the first python block
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "reach_sequence", "--pose", "place_low:0.6", "--pose", "forward_middle:0.6",
                 "--pose", "right_high:0.6", "-o", "clip.json"]) == 0
    exec(compile(example, "README.md", "exec"), {})
    assert (tmp_path / "trajectory.csv").stat().st_size > 0
