"""The README's examples run as written: the Python blocks and the CLI lines."""

import re
import shlex
from pathlib import Path

import numpy as np

from probeview.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_python_examples_run():
    blocks = _blocks("python")
    assert blocks
    # the quick tour shows the two entry points the CLI's reduce and oracle-check call
    assert all(any(f"{name}(" in block for block in blocks) for name in ("reduce_state", "oracle_check"))
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    lines = [line for block in _blocks("sh") for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("probeview ")]
    assert commands
    # the profile-overlap example reads mode.txt from the working directory
    x = np.linspace(-6.0, 6.0, 2001)
    np.savetxt(tmp_path / "mode.txt", np.column_stack([x, np.exp(-(x**2) / 2.0)]))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, shlex.join(["probeview", *argv])
        capsys.readouterr()
