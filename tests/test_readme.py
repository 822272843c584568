"""The examples in README.md run as written: the Python blocks under the
Library heading, and each command of the CLI block."""

import re
import shlex
from pathlib import Path

import pytest

from divgraph import cli

README = Path(__file__).parent.parent / "README.md"
DATA = Path(__file__).parent / "data"


def _section(heading):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _library_blocks():
    return re.findall(r"^```python\n(.*?)^```$", _section("Library"), re.M | re.S)


def _cli_commands():
    (block,) = re.findall(r"^```sh\n(.*?)^```$", _section("CLI"), re.M | re.S)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


BLOCKS = _library_blocks()
COMMANDS = _cli_commands()


def test_library_section_has_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_library_example_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_cli_section_has_commands():
    assert len(COMMANDS) == 7
    assert all(argv[0] == "divgraph" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"command{i}" for i in range(1, len(COMMANDS) + 1)])
def test_cli_example_exits_zero(argv, monkeypatch, capsys):
    monkeypatch.chdir(DATA)  # where the compare example finds b000005.txt
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err
