"""The public names of the package and of each module."""

import importlib

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

