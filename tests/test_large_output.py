"""The benchmark-sized reduce output: bytes against a reference renderer, and memory.

``reduce --alpha 1.2,0.4 --q0sq 0:1:0.1 --cutoff 128`` prints eleven 129x129
Hermitian matrices, about 12 MB in either format, where most magnitudes
repeat.  The reference below formats every element on its own and joins
the whole document into one string, as the CLI once did; the CLI must
write the same bytes to a file and to standard output, and its traced
peak allocation must stay below twice the size of what it writes.
"""

import json
import tracemalloc

import numpy as np
import pytest

from helpers import per_element_fmt
from probeview import Coherent, ModeSplit, TruncationPolicy, number_expectation, purity, reduce_state
from probeview.cli import _parse_q0sq, main

ALPHA = 1.2 + 0.4j
GRID = "0:1:0.1"
CUTOFF = 128
ARGV = ("reduce", "--alpha", "1.2,0.4", "--q0sq", GRID, "--cutoff", str(CUTOFF))
FORMATS = ("json", "csv")
PEAK_TO_OUTPUT_LIMIT = 2.0


def _reference_json(value, indent: int = 0) -> str:
    """Pretty JSON of a reduce payload, built as one string.

    Every object of this payload holds a list or a matrix, so none is
    printed on one line.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, np.ndarray):
        cells = iter(per_element_fmt(np.stack([value.real, value.imag], axis=-1)))
        cell = " " * (indent + 4) + '{"re": %s, "im": %s}'
        rows = [
            inner + "[\n" + ",\n".join(cell % (next(cells), next(cells)) for _ in row)
            + "\n" + inner + "]"
            for row in value
        ]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return per_element_fmt([value])[0]
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        parts = [f"{json.dumps(k)}: {_reference_json(v, indent + 2)}" for k, v in value.items()]
        return "{\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "}"
    parts = [_reference_json(v, indent + 2) for v in value]
    return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"


def _reference_csv(results) -> str:
    lines = ["# command = reduce", f"# cutoff = {CUTOFF}", "q0sq,i,j,re,im"]
    for entry in results:
        q = per_element_fmt([entry["q0sq"]])[0]
        rho = entry["rho0"]
        cells = iter(per_element_fmt(np.stack([rho.real, rho.imag], axis=-1)))
        dim = entry["dim"]
        lines.extend(
            f"{q},{i},{j},{next(cells)},{next(cells)}" for i in range(dim) for j in range(dim)
        )
    for entry in results:
        q, p, n = per_element_fmt([entry["q0sq"], entry["purity"], entry["mean_occupation"]])
        lines.append(f"# q0sq = {q} dim = {entry['dim']} purity = {p} mean_occupation = {n}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def reference():
    policy = TruncationPolicy(CUTOFF)
    results = []
    for q0sq in _parse_q0sq(GRID):
        rho = reduce_state(Coherent(ALPHA), ModeSplit(q0sq), policy)
        results.append(
            {
                "q0sq": q0sq,
                "dim": rho.dim,
                "rho0": rho.elems,
                "purity": purity(rho),
                "mean_occupation": number_expectation(rho),
            }
        )
    payload = {"command": "reduce", "cutoff": CUTOFF, "results": results}
    return {
        "json": (_reference_json(payload) + "\n").encode(),
        "csv": _reference_csv(results).encode(),
    }


@pytest.fixture(scope="module", params=FORMATS)
def traced_file_run(request, tmp_path_factory):
    """One traced ``main`` call writing to a file: (format, bytes, traced peak)."""
    fmt = request.param
    out = tmp_path_factory.mktemp("large") / f"out.{fmt}"
    tracemalloc.start()
    try:
        code = main([*ARGV, "--format", fmt, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return fmt, out.read_bytes(), peak


def test_file_matches_reference(traced_file_run, reference):
    fmt, data, _ = traced_file_run
    assert len(data) > 10_000_000
    assert data == reference[fmt]


def test_stdout_matches_file(traced_file_run, capsys):
    fmt, data, _ = traced_file_run
    assert main([*ARGV, "--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == data


def test_reference_csv_line_count(reference):
    # three header lines, one line per matrix element, one summary line per q0sq
    assert reference["csv"].count(b"\n") == 3 + 11 * (CUTOFF + 1) ** 2 + 11


def test_traced_peak_below_twice_the_output(traced_file_run):
    _, data, peak = traced_file_run
    assert peak < PEAK_TO_OUTPUT_LIMIT * len(data), f"peak {peak} B for {len(data)} B of output"
