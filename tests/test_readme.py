"""README's examples run against the package: a name deleted from the library,
or a command, pattern or flag deleted from the command line, but still used
in the README fails here."""

import glob
import os
import re
import shlex

from labanmotion.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _first_block(section: str, language: str) -> str:
    """The first ``language`` code block after the ``## section`` heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read().split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def test_the_library_example_runs_on_a_synth_clip(tmp_path, monkeypatch):
    example = _first_block("Library", "python")
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "reach_sequence", "--pose", "place_low:0.6", "--pose", "forward_middle:0.6",
                 "--pose", "right_high:0.6", "-o", "clip.json"]) == 0
    exec(compile(example, "README.md", "exec"), {})
    assert (tmp_path / "trajectory.csv").stat().st_size > 0


def test_every_command_line_example_exits_0(tmp_path, monkeypatch):
    """Each ``labanmotion ...`` line of the Command line block, continuation
    lines joined and globs expanded as a shell would, runs in order in one
    directory; ``more/`` holds a second clip for ``dict build``."""
    block = _first_block("Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("labanmotion ")]
    assert len(commands) == 9, commands
    monkeypatch.chdir(tmp_path)
    os.mkdir("more")
    assert main(["synth", "reach_sequence", "--pose", "place_low:0.6", "--pose", "left_high:0.5",
                 "-o", "more/reach.json"]) == 0
    for words in commands:
        argv = [arg for word in words[1:] for arg in sorted(glob.glob(word)) or [word]]
        assert main(argv) == 0, words
