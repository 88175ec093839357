"""The README's command lines and its Library tour run as written."""

import re
import shlex
from pathlib import Path

import pytest

from jrmt.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


COMMANDS = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("jrmt ")]


def test_readme_blocks_are_found():
    # guards the parametrization below against finding nothing
    assert len(COMMANDS) >= 7
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if "--out" in argv:
        assert captured.out == ""
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert captured.out != ""


def test_readme_library_tour_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
