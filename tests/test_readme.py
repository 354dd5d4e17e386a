"""The README's Python and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import chebgreen
from chebgreen import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# every `chebgreen ...` line of the README's sh blocks, as an argument list
COMMANDS = [shlex.split(line, comments=True)
            for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
            for line in block.splitlines() if line.startswith("chebgreen ")]


def test_readme_python_blocks_run_in_order():
    # the blocks build on each other (the second reuses N, f and G from the
    # first), so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {"__name__": "readme"}
    for n, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {n}", "exec"), namespace)


def test_readme_names_every_public_name():
    text = README.read_text()
    missing = [name for name in chebgreen.__all__
               if name != "__version__" and not re.search(rf"\b{name}\b", text)]
    assert missing == []


def test_readme_has_command_line_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_line_examples_run(argv, tmp_path, monkeypatch, capsys):
    # the solve example reads its forcing from file:forcing.txt at n = 16
    monkeypatch.chdir(tmp_path)
    np.savetxt("forcing.txt", np.sin(chebgreen.cgl_points(16)))
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err
