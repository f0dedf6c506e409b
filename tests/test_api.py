"""The public names of the package and of each module."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = [
    "probeview",
    "probeview.fock",
    "probeview.reduction",
    "probeview.oracle",
    "probeview.analysis",
    "probeview.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []



def test_cli_imports_no_private_library_name():
    import probeview.cli

    tree = ast.parse(Path(probeview.cli.__file__).read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("probeview"))
        for alias in node.names
    ]
    assert "reduce_state" in names  # the relative imports of the library are seen
    assert [name for name in names if name.startswith("_")] == []
