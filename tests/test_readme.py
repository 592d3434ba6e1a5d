"""README's command-line examples: each parses, and each estimate runs to its inputs."""

import re
import shlex
from pathlib import Path

import pytest

from markovmix import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Every ``markovmix`` command of README's sh blocks, split into words."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "markovmix":
                commands.append(words[1:])
    return commands


COMMANDS = _readme_commands()
IDS = [f"{i}-{words[0]}" for i, words in enumerate(COMMANDS)]


def test_every_subcommand_has_an_example():
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert {words[0] for words in COMMANDS} == set(subparsers.choices)


@pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
def test_example_parses(argv):
    cli._build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [words for words in COMMANDS if words[0] == "estimate"],
    ids=[i for i, words in zip(IDS, COMMANDS) if words[0] == "estimate"],
)
def test_estimate_example_stops_at_its_missing_inputs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_DATA
    assert "error: " in capsys.readouterr().err
