"""Golden output bytes: every subcommand in both formats, pinned by SHA-256.

The manifest ``golden_sha256.json`` holds the hash and length of the exact
bytes each case writes.  A refactor of the output path must leave every entry
unchanged; a deliberate format change regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json

and says so in the change log.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from probeview import oracle_check
from probeview.cli import _parse_grid, main

MANIFEST = Path(__file__).with_name("golden_sha256.json")
PROFILE_NAME = "mode.txt"

_MIXTURE = {
    "family": "mixture",
    "weights": [0.25, 0.75],
    "states": [
        {"family": "number", "n": 2},
        {"family": "coherent", "alpha": {"re": 0.3, "im": -0.5}},
    ],
}

CASES = {
    "reduce-grid": ("reduce", "--alpha", "1.2,0.4", "--q0sq", "0:1:0.25", "--cutoff", "16"),
    "reduce-number": ("reduce", "--state", '{"family": "number", "n": 3}', "--q0sq", "0.3"),
    # a negative real amplitude gives -0.0 imaginary parts, which must print as 0
    "reduce-coherent": (
        "reduce",
        "--state",
        '{"family": "coherent", "alpha": -1.5}',
        "--q0sq",
        "0.6",
        "--cutoff",
        "24",
    ),
    "reduce-thermal": (
        "reduce",
        "--state",
        '{"family": "thermal", "betaE": 2.0, "energy": 2.0}',
        "--q0sq",
        "0:1:0.5",
        "--cutoff",
        "24",
    ),
    "reduce-custom": (
        "reduce",
        "--state",
        '{"family": "custom", "coeffs": [[0.6, 0.0], [-0.48, 0.64]]}',
        "--q0sq",
        "0.4",
    ),
    "reduce-mixture": ("reduce", "--state", json.dumps(_MIXTURE), "--q0sq", "0.5", "--cutoff", "12"),
    "sweep-purity": ("sweep-purity", "--max-n", "3", "--q0sq", "0:1:0.25"),
    "sweep-thermal": ("sweep-thermal", "--q0sq", "0.25:1:0.25", "--inv-betae", "0.5:2:0.5"),
    "oracle-check": ("oracle-check", "--max-n", "2", "--q0sq", "0:1:0.5"),
    # the size of the benchmark's oracle-check workload
    "oracle-check-max-n-12": ("oracle-check", "--max-n", "12", "--seed", "5"),
    "profile-overlap": ("profile-overlap", "--profile", PROFILE_NAME, "--region=-1:2"),
}
FORMATS = ("json", "csv")


def _write_profile(directory: Path) -> None:
    x = np.linspace(-4.0, 4.0, 401)
    np.savetxt(directory / PROFILE_NAME, np.column_stack([x, np.exp(-(x**2) / 2.0)]))


def _output_bytes(name: str, fmt: str, directory: Path) -> bytes:
    """Run one case in ``directory`` (the profile path is printed, so it is relative)."""
    out = directory / f"{name}.{fmt}"
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = main(list(CASES[name]) + ["--format", fmt, "--out", out.name])
    finally:
        os.chdir(cwd)
    assert code == 0
    return out.read_bytes()


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_profile(directory)
    return directory


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def test_manifest_covers_every_case(manifest):
    assert sorted(manifest) == sorted(f"{name}.{fmt}" for name in CASES for fmt in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(workdir, manifest, name, fmt):
    assert _digest(_output_bytes(name, fmt, workdir)) == manifest[f"{name}.{fmt}"]


@pytest.mark.parametrize("name", ["oracle-check", "oracle-check-max-n-12"])
def test_oracle_check_rows_match_golden_checks(workdir, manifest, name):
    data = _output_bytes(name, "json", workdir)
    assert _digest(data) == manifest[f"{name}.json"]
    payload = json.loads(data)  # %.17g round-trips, so equal floats have equal bits
    argv = CASES[name]
    q0sq = argv[argv.index("--q0sq") + 1] if "--q0sq" in argv else "0:1:0.1"  # the CLI default
    rows = oracle_check(payload["max_n"], payload["seed"], _parse_grid(q0sq, "--q0sq"))
    assert rows == tuple((c["name"], c["cases"], c["max_abs_diff"]) for c in payload["checks"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_profile(directory)
        entries = {
            f"{name}.{fmt}": _digest(_output_bytes(name, fmt, directory))
            for name in CASES
            for fmt in FORMATS
        }
    json.dump(entries, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
