"""Output checks, run after the timed loop ends.

Every check returns a list of problems; an empty list is a pass.  The gates
are the repository's own: unit trace and PSD within 1e-10, Hermitian within
1e-12, and 1e-10 agreement with the brute-force two-mode oracle
(``partial_trace_numeric(expand_two_mode(...))``), which shares no code with
the closed forms or the series.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from workloads import REDUCE_CUTOFF, REDUCE_POINTS, KernelInput

TOL = 1e-10
HERMITIAN_TOL = 1e-12
GRID_TOL = 1e-12


class Reduced(NamedTuple):
    """One grid point of a parsed ``reduce`` output."""

    q0sq: float
    rho: np.ndarray
    purity: float
    mean_occupation: float


def parse_reduce_json(text: str) -> list[Reduced]:
    payload = json.loads(text)
    entries = []
    for item in payload["results"]:
        re = np.array([[c["re"] for c in row] for row in item["rho0"]], dtype=float)
        im = np.array([[c["im"] for c in row] for row in item["rho0"]], dtype=float)
        if re.shape != (item["dim"], item["dim"]):
            raise ValueError(f"matrix shape {re.shape} does not match dim {item['dim']}")
        entries.append(
            Reduced(float(item["q0sq"]), re + 1j * im, float(item["purity"]), float(item["mean_occupation"]))
        )
    return entries


def parse_reduce_csv(text: str) -> list[Reduced]:
    summaries, rows = [], []
    for line in text.splitlines():
        if line.startswith("# q0sq = "):
            # "# q0sq = X dim = D purity = P mean_occupation = M"
            fields = line[2:].split()
            summaries.append((float(fields[2]), int(fields[5]), float(fields[8]), float(fields[11])))
        elif not line.startswith("#") and line != "q0sq,i,j,re,im":
            rows.append(line.split(","))
    data = np.array(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != 5:
        raise ValueError("data rows must have five columns")
    entries, at = [], 0
    for q0sq, dim, purity, mean_occupation in summaries:
        block = data[at : at + dim * dim]
        at += dim * dim
        i, j = np.divmod(np.arange(dim * dim), dim)
        if block.shape[0] != dim * dim or np.any(block[:, 0] != q0sq):
            raise ValueError(f"rows for q0sq = {q0sq!r} are missing or out of order")
        if np.any(block[:, 1] != i) or np.any(block[:, 2] != j):
            raise ValueError(f"matrix indices for q0sq = {q0sq!r} are out of order")
        rho = (block[:, 3] + 1j * block[:, 4]).reshape(dim, dim)
        entries.append(Reduced(q0sq, rho, purity, mean_occupation))
    if at != data.shape[0]:
        raise ValueError("data rows without a summary line")
    return entries


def bit_identical(a: list[Reduced], b: list[Reduced]) -> bool:
    """Same grid, matrices and scalars down to the last bit."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        scalars = np.array([x.q0sq, x.purity, x.mean_occupation]), np.array([y.q0sq, y.purity, y.mean_occupation])
        if x.rho.shape != y.rho.shape or not np.array_equal(scalars[0].view(np.uint64), scalars[1].view(np.uint64)):
            return False
        if not np.array_equal(x.rho.view(np.uint64), y.rho.view(np.uint64)):
            return False
    return True


def oracle_rho(pv, coeffs: np.ndarray, q0sq: float, dim: int) -> np.ndarray:
    """Brute-force reduced state of a pure input, zero-padded to ``dim``."""
    psi = pv.FockVector(coeffs)
    split = pv.ModeSplit.from_q0sq(q0sq)
    rho = pv.oracle.partial_trace_numeric(pv.oracle.expand_two_mode(psi, split, max(psi.dim - 1, 1))).elems
    out = np.zeros((dim, dim), dtype=complex)
    out[: rho.shape[0], : rho.shape[1]] = rho
    return out


def reduce_problems(entries: list[Reduced], alpha: complex, pv, cutoff: int = REDUCE_CUTOFF) -> list[str]:
    """A reduce grid against the oracle applied to the materialized coherent input."""
    if len(entries) != REDUCE_POINTS:
        return [f"expected {REDUCE_POINTS} grid points, got {len(entries)}"]
    coeffs = pv.materialize(pv.Coherent(alpha), pv.TruncationPolicy(cutoff)).state.coeffs
    problems = []
    for k, entry in enumerate(entries):
        if abs(entry.q0sq - k / (REDUCE_POINTS - 1)) > GRID_TOL:
            problems.append(f"grid point {k} is q0sq = {entry.q0sq!r}")
            continue
        if entry.rho.shape != (cutoff + 1, cutoff + 1):
            problems.append(f"q0sq = {entry.q0sq!r}: shape {entry.rho.shape}")
            continue
        diff = np.max(np.abs(entry.rho - oracle_rho(pv, coeffs, entry.q0sq, cutoff + 1)))
        if not diff <= TOL:
            problems.append(f"q0sq = {entry.q0sq!r}: oracle disagreement {diff:.3e}")
        purity = float(np.sum(np.abs(entry.rho) ** 2))
        if not abs(purity - entry.purity) <= TOL:
            problems.append(f"q0sq = {entry.q0sq!r}: purity {entry.purity!r} vs matrix {purity!r}")
        mean = float(np.arange(cutoff + 1) @ entry.rho.diagonal().real)
        if not abs(mean - entry.mean_occupation) <= TOL:
            problems.append(f"q0sq = {entry.q0sq!r}: mean occupation {entry.mean_occupation!r} vs matrix {mean!r}")
    return problems


def density_problems(rho: np.ndarray, dim: int, label: str) -> list[str]:
    """Shape, finiteness, unit trace, Hermiticity and PSD gates."""
    if rho.shape != (dim, dim):
        return [f"{label}: shape {rho.shape}, expected {(dim, dim)}"]
    if not np.all(np.isfinite(rho)):
        return [f"{label}: non-finite entries"]
    problems = []
    trace_defect = abs(complex(np.trace(rho)) - 1.0)
    if not trace_defect <= TOL:
        problems.append(f"{label}: trace defect {trace_defect:.3e}")
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm_defect <= HERMITIAN_TOL:
        problems.append(f"{label}: Hermitian defect {herm_defect:.3e}")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if not min_eig >= -TOL:
        problems.append(f"{label}: minimum eigenvalue {min_eig:.3e}")
    return problems


def _mean_occupation(probs: np.ndarray) -> float:
    return float(np.arange(probs.size) @ probs)


def kernel_problems(inp: KernelInput, pure: np.ndarray, mixed: np.ndarray, oracle: dict) -> list[str]:
    """Gates, <n> scaling by q0sq, and agreement with precomputed oracle matrices."""
    dim_mixed = max(c.size for c in inp.components)
    problems = density_problems(pure, inp.pure.size, "pure") + density_problems(mixed, dim_mixed, "mixed")
    if problems:
        return problems
    n_pure = _mean_occupation(np.abs(inp.pure) ** 2)
    n_mixed = sum(w * _mean_occupation(np.abs(c) ** 2) for w, c in zip(inp.weights, inp.components))
    for label, rho, n_in in (("pure", pure, n_pure), ("mixed", mixed, n_mixed)):
        expected = inp.q0sq * n_in
        n_out = _mean_occupation(rho.diagonal().real)
        if not abs(n_out - expected) <= TOL * expected:
            problems.append(f"{label}: <n> = {n_out!r}, expected q0sq * <n_in> = {expected!r}")
        diff = float(np.max(np.abs(rho - oracle[label])))
        if not diff <= TOL:
            problems.append(f"{label}: oracle disagreement {diff:.3e}")
    return problems


def kernel_oracle(inp: KernelInput, pv) -> dict:
    dim_mixed = max(c.size for c in inp.components)
    mixed = sum(w * oracle_rho(pv, c, inp.q0sq, dim_mixed) for w, c in zip(inp.weights, inp.components))
    return {"pure": oracle_rho(pv, inp.pure, inp.q0sq, inp.pure.size), "mixed": mixed}


def oracle_check_problems(text: str, code: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    payload = json.loads(text)
    if payload.get("status") != "ok":
        problems.append(f"status {payload.get('status')!r}")
    return problems
