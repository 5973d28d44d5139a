"""README's examples run against the package: a name deleted from the library,
or a command, pattern or flag deleted from the command line, but still used
in the README fails here. So does a flag or config key that the prose still
names after it is removed, or an option that the prose leaves out."""

import argparse
import glob
import os
import re
import shlex

from labanmotion import cli
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


def _prose() -> str:
    """README before ``## Tests``, whose commands name pytest's own flags."""
    with open(README, encoding="utf-8") as fh:
        return fh.read().split("\n## Tests\n", 1)[0]


def _options() -> set[str]:
    """Every option string of the top-level parser and of each command's
    parser, each command's built as its first parse builds it."""
    found, parsers = set(), [cli.build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            found.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                for command in action.choices.values():
                    built = cli._Parser(**command._kwargs)
                    command._fill(built)
                    parsers.append(built)
    return found


def test_the_prose_names_the_options_the_parsers_take():
    text, options = _prose(), _options()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert named - options == set(), "flags the parsers do not take"
    assert {"--rate", "--traj-rate", "--pose", "--force-final-keyframe"} <= options
    assert {o for o in options - {"-h", "-o", "--output"}
            if not re.search(rf"(?<![\w-]){o}(?![\w-])", text)} == set(), "options the README leaves out"


def test_the_config_keys_are_the_settings():
    listed = _prose().split("can seed any flag", 1)[1].split(")", 1)[0]
    assert set(re.findall(r"`(\w+)`", listed)) == set(cli.SETTINGS)
