"""The README's command examples run, and its branch table is real output."""

import re
import shlex
from pathlib import Path

import pytest

from artifact.cli import EXIT_PASS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
COMMANDS = [
    line
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("artifact ")
]


def test_readme_has_the_documented_commands():
    subcommands = {shlex.split(line)[1] for line in COMMANDS}
    assert subcommands == {"branch", "verify", "show", "bijection"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_zero(line, capsys):
    assert main(shlex.split(line)[1:]) == EXIT_PASS, capsys.readouterr().err


def test_readme_branch_table_is_the_real_output(capsys):
    command = "artifact branch --n 2 --lambda 2,2"
    at = next(i for i, (lang, body) in enumerate(BLOCKS) if command in body.splitlines())
    lang, table = BLOCKS[at + 1]
    assert lang == ""
    assert main(shlex.split(command)[1:]) == EXIT_PASS
    got = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert got == [line.split() for line in table.splitlines()]
