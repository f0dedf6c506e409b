"""Brute-force verifier on the explicit two-mode basis |n0, n1>.

States are built by repeatedly applying the split creation operator
q0*(adag x 1) + q1*(1 x adag) to the two-mode vacuum and the region
marginal is obtained by a literal index contraction.  No code is shared
with the closed forms or the series in `reduction`; agreement between
the two paths is the correctness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .fock import DensityMatrix, FockVector, ModeSplit, ValidationError

__all__ = [
    "TwoModeVector",
    "CompareResult",
    "expand_two_mode",
    "partial_trace_numeric",
    "compare_states",
    "random_fock_vectors",
]

_PURE_RANK_TOL = 1e-10


@dataclass(frozen=True)
class TwoModeVector:
    """Amplitudes on the product basis, coeffs[n0, n1] multiplying |n0, n1>.

    A leading state axis, coeffs[s, n0, n1], holds a stack of states on
    one basis; each state must be finite and normalized on its own.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim not in (2, 3) or coeffs.size == 0:
            raise ValidationError("two-mode coefficients must form a nonempty 2-D or 3-D array")
        if not (np.all(np.isfinite(coeffs.real)) and np.all(np.isfinite(coeffs.imag))):
            raise ValidationError("two-mode coefficients must be finite")
        norms_sq = np.atleast_1d(np.sum(np.abs(coeffs) ** 2, axis=(-2, -1)))
        worst = float(norms_sq[np.argmax(np.abs(norms_sq - 1.0))])
        if abs(worst - 1.0) > 1e-10:
            raise ValidationError(f"two-mode state not normalized: norm^2 = {worst!r}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


def _apply_split_creation(grid: np.ndarray, q0: float, q1: float) -> np.ndarray:
    """Matrix-free action of the split creation operator on a coefficient grid."""
    out = np.zeros_like(grid)
    rows = np.sqrt(np.arange(1.0, grid.shape[0]))[:, None]
    cols = np.sqrt(np.arange(1.0, grid.shape[1]))[None, :]
    out[1:, :] += q0 * rows * grid[:-1, :]
    out[:, 1:] += q1 * cols * grid[:, :-1]
    return out


def expand_two_mode(
    psi: Union[FockVector, Sequence[FockVector]], split: ModeSplit, cutoff: int
) -> TwoModeVector:
    """Expand single-mode states onto the explicit two-mode basis.

    Builds (split creation)^n |0,0> / sqrt(n!) by repeated operator
    application (never the binomial closed form) and combines the rungs
    with the amplitudes of ``psi``.  The rungs are built once per call and
    serve every state of a sequence.

    Parameters
    ----------
    psi
        Single-mode amplitudes, or a sequence of them; no support may
        exceed ``cutoff``.
    split
        Region/complement amplitudes.
    cutoff
        Per-mode basis cutoff of the product space.

    Returns
    -------
    TwoModeVector
        Coefficients of shape (cutoff+1, cutoff+1) for one FockVector, or
        (len(psi), cutoff+1, cutoff+1) for a sequence, in its order.

    Raises
    ------
    ValidationError
        If the support of a state exceeds ``cutoff``.
    """
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 1:
        raise ValidationError(f"cutoff must be an integer >= 1, got {cutoff!r}")
    single = isinstance(psi, FockVector)
    states = (psi,) if single else tuple(psi)
    if not states or any(not isinstance(state, FockVector) for state in states):
        raise ValidationError("states must be a FockVector or a nonempty sequence of them")
    support = max(state.dim for state in states)
    if support - 1 > cutoff:
        raise ValidationError(f"state support {support - 1} exceeds cutoff {cutoff}")
    amplitudes = np.zeros((len(states), support), dtype=complex)
    for row, state in zip(amplitudes, states):
        row[: state.dim] = state.coeffs
    dim = int(cutoff) + 1
    rung = np.zeros((dim, dim), dtype=complex)
    rung[0, 0] = 1.0
    out = amplitudes[:, 0, None, None] * rung
    for n in range(1, support):
        # rung holds (split creation)^n |0,0> / sqrt(n!), exactly normalized
        rung = _apply_split_creation(rung, split.q0, split.q1) / math.sqrt(n)
        out = out + amplitudes[:, n, None, None] * rung
    return TwoModeVector(out[0] if single else out)


def partial_trace_numeric(
    state: Union[TwoModeVector, np.ndarray],
    keep: int = 0,
) -> Union[DensityMatrix, np.ndarray]:
    """Trace out one mode of a two-mode state by literal index contraction.

    Parameters
    ----------
    state
        TwoModeVector, or a density matrix on the product basis given as
        a square array of side (N+1)**2 with row-major (n0, n1) indexing.
    keep
        Which mode survives: 0 (the region, default) or 1 (the complement).

    Returns
    -------
    DensityMatrix or numpy.ndarray
        (rho_keep)_{ij} = sum_k rho_{(i,k),(j,k)} for keep = 0, and the
        index-swapped contraction for keep = 1.  A TwoModeVector holding a
        stack of states gives the stack of marginals, shape (S, N+1, N+1),
        not validated: pass it to ``validate_density_matrix``.
    """
    if keep not in (0, 1):
        raise ValidationError(f"keep must be 0 or 1, got {keep!r}")
    if isinstance(state, TwoModeVector):
        grid = state.coeffs
        if keep == 0:
            rho = np.einsum("...ik,...jk->...ij", grid, grid.conj())
        else:
            rho = np.einsum("...ki,...kj->...ij", grid, grid.conj())
        return rho if rho.ndim == 3 else DensityMatrix(rho)
    arr = np.asarray(state, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("two-mode density matrix must be square")
    side = math.isqrt(arr.shape[0])
    if side * side != arr.shape[0]:
        raise ValidationError("two-mode density matrix side must be a perfect square")
    blocks = arr.reshape(side, side, side, side)
    if keep == 0:
        rho = np.einsum("ikjk->ij", blocks)
    else:
        rho = np.einsum("kikj->ij", blocks)
    return DensityMatrix(rho)


class CompareResult(NamedTuple):
    """Distance report between two density matrices."""

    max_abs_diff: float
    trace_distance: float
    fidelity_if_pure: Optional[float]


def _as_matrix(state: Union[DensityMatrix, np.ndarray]) -> np.ndarray:
    return state.elems if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)


def compare_states(
    a: Union[DensityMatrix, np.ndarray],
    b: Union[DensityMatrix, np.ndarray],
) -> CompareResult:
    """Elementwise and spectral distances between two density matrices.

    The smaller matrix is zero-padded to the larger dimension.  Fidelity
    <psi|b|psi> is reported only when ``a`` is pure (largest eigenvalue
    within 1e-10 of 1), with |psi> its leading eigenvector.
    """
    mat_a = _as_matrix(a)
    mat_b = _as_matrix(b)
    dim = max(mat_a.shape[0], mat_b.shape[0])
    pad_a = np.zeros((dim, dim), dtype=complex)
    pad_b = np.zeros((dim, dim), dtype=complex)
    pad_a[: mat_a.shape[0], : mat_a.shape[1]] = mat_a
    pad_b[: mat_b.shape[0], : mat_b.shape[1]] = mat_b
    diff = pad_a - pad_b
    max_abs = float(np.max(np.abs(diff))) if dim else 0.0
    eigs = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)
    trace_dist = 0.5 * float(np.sum(np.abs(eigs)))
    fidelity = None
    vals, vecs = np.linalg.eigh((pad_a + pad_a.conj().T) / 2.0)
    if vals[-1] >= 1.0 - _PURE_RANK_TOL:
        leading = vecs[:, -1]
        fidelity = float(np.real(leading.conj() @ pad_b @ leading))
    return CompareResult(max_abs, trace_dist, fidelity)


def random_fock_vectors(count: int, max_support: int, seed: int) -> list[FockVector]:
    """Reproducible random pure states with support <= max_support.

    Coefficients are drawn isotropically (complex standard normal, then
    normalized), so the states are uniform over the unit sphere.
    """
    if count < 1 or max_support < 0:
        raise ValidationError("need count >= 1 and max_support >= 0")
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        raw = rng.standard_normal(max_support + 1) + 1j * rng.standard_normal(max_support + 1)
        states.append(FockVector(raw / np.linalg.norm(raw)))
    return states
