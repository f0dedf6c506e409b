"""The benchmark-sized reduce output: bytes against a reference renderer, and memory.

``reduce --alpha 1.2,0.4 --q0sq 0:1:0.1 --cutoff 128`` prints eleven 129x129
Hermitian matrices, about 12 MB in either format, where most magnitudes
repeat.  The reference below formats every element on its own and joins
the whole document into one string, as the CLI once did; the CLI must
write the same bytes to a file and to standard output, and its traced
peak allocation must stay below twice the size of what it writes.  Each
point's text is written as it is rendered, so ten more grid points may add
only the ten matrices the run keeps until it writes, not their text.

A sweep is one (rows, 3) float table written in blocks of rows, so its
traced peak may grow by little more than the table's 24 bytes per row.
A matrix is written in the same blocks of rows, so the text rendered at one
time is one block's, however large the matrix.
"""

import json
import tracemalloc

import numpy as np
import pytest

from helpers import per_element_fmt
from probeview import Coherent, ModeSplit, TruncationPolicy, number_expectation, purity, reduce_state
import probeview.cli
from probeview.cli import _parse_grid, _reduce_csv_lines, _render_json, main

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
    for q0sq in _parse_grid(GRID, "--q0sq"):
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


def _traced_peak(argv) -> int:
    """The traced peak allocation of one successful ``main`` call, in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.fixture(scope="module", params=FORMATS)
def traced_file_run(request, tmp_path_factory):
    """One traced ``main`` call writing to a file: (format, bytes, traced peak)."""
    fmt = request.param
    out = tmp_path_factory.mktemp("large") / f"out.{fmt}"
    peak = _traced_peak([*ARGV, "--format", fmt, "--out", str(out)])
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


def test_traced_peak_grows_by_the_kept_matrices_alone(traced_file_run, tmp_path):
    fmt, _, peak_11 = traced_file_run
    argv = [*ARGV, "--format", fmt, "--out", str(tmp_path / f"out.{fmt}")]
    argv[argv.index(GRID)] = "0:1:0.05"  # 21 points
    growth = _traced_peak(argv) - peak_11
    limit = 2 * 10 * 16 * (CUTOFF + 1) ** 2  # twice ten more complex matrices
    assert growth <= limit, f"10 more points added {growth} B to the traced peak"


# per sweep: the argv up to its grid flag, a smaller and a larger grid, and the extra rows
SWEEP_GRIDS = [
    (("sweep-thermal", "--q0sq", "0:1:0.25", "--inv-betae"), "0.01:40:0.01", "0.001:40:0.001", 5 * 36000),
    (("sweep-purity", "--max-n", "40", "--q0sq"), "0:1:0.01", "0:1:0.001", 40 * 900),
]
SWEEP_BYTES_PER_ROW_LIMIT = 64


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "argv, small, large, extra_rows", SWEEP_GRIDS, ids=[case[0][0] for case in SWEEP_GRIDS]
)
def test_sweep_peak_grows_by_little_more_than_its_table(tmp_path, argv, small, large, extra_rows, fmt):
    out = str(tmp_path / f"out.{fmt}")
    peaks = [_traced_peak([*argv, grid, "--format", fmt, "--out", out]) for grid in (small, large)]
    per_row = (peaks[1] - peaks[0]) / extra_rows
    assert per_row <= SWEEP_BYTES_PER_ROW_LIMIT, f"{per_row:.1f} B per extra row"


BLOCK_CUTOFF = 255
BLOCK_ROWS = 16
BLOCK_PEAK_TO_MATRIX_LIMIT = 3.0


@pytest.mark.parametrize("fmt", FORMATS)
def test_matrix_rendering_peak_is_bounded_by_the_block(monkeypatch, fmt):
    # 16-row blocks of a 256x256 matrix: one block's cells and text are a 16th of the whole
    # matrix's, whose text alone is over 3x the matrix bytes in either format
    monkeypatch.setattr(probeview.cli, "_TABLE_BLOCK_ROWS", BLOCK_ROWS)
    rho = reduce_state(Coherent(ALPHA), ModeSplit(0.5), TruncationPolicy(BLOCK_CUTOFF))
    m = rho.elems
    entry = {"q0sq": 0.5, "dim": rho.dim, "rho0": m, "purity": 1.0, "mean_occupation": 1.0}
    tracemalloc.start()
    try:
        if fmt == "json":
            pieces = _render_json({"rho0": m})
        else:
            pieces = _reduce_csv_lines(BLOCK_CUTOFF, [entry])
        for _ in pieces:  # each piece is dropped before the next is rendered
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < BLOCK_PEAK_TO_MATRIX_LIMIT * m.nbytes, f"peak {peak} B for a {m.nbytes} B matrix"
