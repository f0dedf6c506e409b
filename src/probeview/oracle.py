"""Brute-force verifier on the explicit two-mode basis |n0, n1>.

The rungs (split creation)^n |0,0> / sqrt(n!) are built by repeatedly
applying the split creation operator q0*(adag x 1) + q1*(1 x adag) to the
two-mode vacuum, and folded into the states with matrix products over
blocks of rungs.  The region marginal is the matrix product c c^dagger of
each coefficient grid, which sums over the complement index.  No code is
shared with the closed forms or the kernel in `reduction`; agreement
between the two paths is the correctness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .fock import DensityMatrix, FockVector, ModeSplit, ValidationError, _check_int

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
    one basis; each state must be finite and normalized on its own.  The
    constructor copies the array it is given, so the caller's array stays
    writable; ``expand_two_mode`` hands over the array it has just built
    without a copy.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _checked_two_mode(np.array(self.coeffs, dtype=complex)))

    @classmethod
    def _adopt(cls, coeffs: np.ndarray) -> "TwoModeVector":
        """Wrap a complex array no one else holds, checked and frozen in place."""
        state = object.__new__(cls)
        object.__setattr__(state, "coeffs", _checked_two_mode(coeffs))
        return state


def _checked_two_mode(coeffs: np.ndarray) -> np.ndarray:
    """Check a complex coefficient array (or stack) and make it read-only.

    The squared norms are one reduction over the interleaved real view of
    each state, with no temporary of the array's size (a non-contiguous
    array is viewed through a contiguous copy); the elementwise finite check
    runs only when a norm is not finite, to name the cause.
    """
    if coeffs.ndim not in (2, 3) or coeffs.size == 0:
        raise ValidationError("two-mode coefficients must form a nonempty 2-D or 3-D array")
    per_state = coeffs.shape[-2] * coeffs.shape[-1]
    real = np.ascontiguousarray(coeffs).reshape(-1, per_state).view(float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is inf
        norms_sq = np.einsum("si,si->s", real, real)
    if not np.isfinite(norms_sq).all():
        if not np.isfinite(coeffs).all():
            raise ValidationError("two-mode coefficients must be finite")
    worst = float(norms_sq[np.argmax(np.abs(norms_sq - 1.0))])
    if abs(worst - 1.0) > 1e-10:
        raise ValidationError(f"two-mode state not normalized: norm^2 = {worst!r}")
    coeffs.setflags(write=False)
    return coeffs


def _apply_split_creation(
    grid: np.ndarray, q0: float, q1: float, overwrite: bool = False
) -> np.ndarray:
    """Matrix-free action of the split creation operator on a coefficient grid.

    With ``overwrite`` the columns of ``grid`` are scaled in place instead
    of into a temporary, which leaves ``grid`` unusable afterwards.
    """
    out = np.zeros_like(grid)
    rows = np.sqrt(np.arange(1.0, grid.shape[0]))[:, None]
    cols = np.sqrt(np.arange(1.0, grid.shape[1]))[None, :]
    np.multiply(q0 * rows, grid[:-1, :], out=out[1:, :])
    shifted = grid[:, :-1]
    out[:, 1:] += np.multiply(q1 * cols, shifted, out=shifted if overwrite else None)
    return out


def expand_two_mode(
    psi: Union[FockVector, Sequence[FockVector]], split: ModeSplit, cutoff: int
) -> TwoModeVector:
    """Expand single-mode states onto the explicit two-mode basis.

    Builds (split creation)^n |0,0> / sqrt(n!) by repeated operator
    application (never the binomial closed form) and folds the rungs into
    the states with matrix products, amplitudes @ rungs, in blocks of at
    most len(psi) rungs, so the rung buffer is never larger than the
    output; a single state holds one rung at a time.  The rungs are built
    once per call and serve every state of a sequence.  Rung n is real and
    lives on the antidiagonal n0 + n1 = n, so each coefficient receives one
    product and its bits do not depend on the blocking or the stack.

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
    cutoff = _check_int(cutoff, "cutoff", 1)
    single = isinstance(psi, FockVector)
    states = (psi,) if single else tuple(psi)
    if not states or any(not isinstance(state, FockVector) for state in states):
        raise ValidationError("states must be a FockVector or a nonempty sequence of them")
    coeffs = [state.coeffs for state in states]
    sizes = np.array([c.size for c in coeffs])
    support = int(sizes.max())
    if support - 1 > cutoff:
        raise ValidationError(f"state support {support - 1} exceeds cutoff {cutoff}")
    # row s holds state s, zero-padded; a boolean mask fills in row-major order
    amplitudes = np.zeros((len(states), support), dtype=complex)
    amplitudes[np.arange(support) < sizes[:, None]] = np.concatenate(coeffs)
    dim = cutoff + 1
    block = min(len(states), support)
    rungs = np.zeros((block, dim, dim), dtype=complex)  # rungs[k] holds rung first + k
    rungs[0, 0, 0] = 1.0
    out = np.zeros((len(states), dim * dim), dtype=complex)
    first = 0
    for n in range(1, support):
        folded = n - first == block
        if folded:
            out += amplitudes[:, first:n] @ rungs.reshape(block, -1)
            first = n
        # rung n = (split creation)^n |0,0> / sqrt(n!), exactly normalized; rung
        # n-1 may serve as scratch once it is folded in
        rungs[n - first] = _apply_split_creation(
            rungs[n - first - 1], split.q0, split.q1, overwrite=folded
        )
        rungs[n - first] /= math.sqrt(n)
    filled = support - first
    out += amplitudes[:, first:] @ rungs[:filled].reshape(filled, -1)
    del rungs  # freed before the output is checked
    out = out.reshape(len(states), dim, dim)
    return TwoModeVector._adopt(out[0] if single else out)


def partial_trace_numeric(state: TwoModeVector) -> Union[DensityMatrix, np.ndarray]:
    """Region marginal (rho_0)_{ij} = sum_k c[i, k] conj(c[j, k]), as the product c c^dagger.

    A TwoModeVector holding a stack of states gives the stack of marginals,
    shape (S, N+1, N+1), not validated: pass it to ``validate_density_matrix``.
    """
    if not isinstance(state, TwoModeVector):
        raise ValidationError("state must be a TwoModeVector")
    grid = state.coeffs
    rho = grid @ grid.conj().swapaxes(-2, -1)
    return rho if rho.ndim == 3 else DensityMatrix(rho)


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
    count, max_support = _check_int(count, "count", 1), _check_int(max_support, "max_support", 0)
    seed = _check_int(seed, "seed", 0)
    # one draw in the order of a real and an imaginary draw per state
    draws = np.random.default_rng(seed).standard_normal((count, 2, max_support + 1))
    raw = draws[:, 0] + 1j * draws[:, 1]
    return [FockVector(row / np.linalg.norm(row)) for row in raw]
