"""Brute-force verifier on the explicit two-mode basis |n0, n1>.

The rungs (split creation)^n |0,0> / sqrt(n!) are built by repeatedly
applying the split creation operator q0*(adag x 1) + q1*(1 x adag) to the
two-mode vacuum.  Rung n lives on the antidiagonal n0 + n1 = n, so all
rungs share one grid, and each coefficient of a state is one product of
its amplitude and a rung entry.  The region marginal is the matrix product
c c^dagger of each coefficient grid, which sums over the complement index.
No code is shared with the closed forms or the kernel in `reduction`;
agreement between the two paths is the correctness argument.
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


def _raise_rung(rung: np.ndarray, q0: float, q1: float) -> np.ndarray:
    """The split creation operator on a rung n, given by its antidiagonal.

    Entry k of ``rung`` is the coefficient at (k, n - k); entry k of the
    result, rung n + 1, is q0*sqrt(k) times entry k - 1 plus
    q1*sqrt(n + 1 - k) times entry k.
    """
    out = np.zeros(rung.size + 1, dtype=complex)
    steps = np.sqrt(np.arange(1.0, out.size))
    np.multiply(q0 * steps, rung, out=out[1:])
    out[:-1] += q1 * steps[::-1] * rung
    return out


def expand_two_mode(
    psi: Union[FockVector, Sequence[FockVector]], split: ModeSplit, cutoff: int
) -> TwoModeVector:
    """Expand single-mode states onto the explicit two-mode basis.

    Builds (split creation)^n |0,0> / sqrt(n!) by repeated operator
    application (never the binomial closed form), once per call for every
    state of a sequence.  Rung n lives on the antidiagonal n0 + n1 = n, so
    all rungs share one (cutoff+1, cutoff+1) grid, and coefficient
    (n0, n1) of state s is the one product psi_s[n0 + n1] * rung[n0, n1]:
    a gather of the amplitudes and one multiply, with no temporary of the
    output's size.

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
    dim = cutoff + 1
    # row s holds state s, zero-padded to every n0 + n1; a boolean mask fills in row-major order
    amplitudes = np.zeros((len(states), 2 * dim - 1), dtype=complex)
    amplitudes[np.arange(amplitudes.shape[1]) < sizes[:, None]] = np.concatenate(coeffs)
    # rung n = (split creation)^n |0,0> / sqrt(n!), exactly normalized; entry k sits at (k, n - k)
    rungs = np.zeros((dim, dim), dtype=complex)
    rung = np.ones(1, dtype=complex)
    rungs[0, 0] = 1.0
    for n in range(1, support):
        rung = _raise_rung(rung, split.q0, split.q1)
        rung /= math.sqrt(n)
        rungs.reshape(-1)[n : n * dim + 1 : dim - 1] = rung
    total = np.add.outer(np.arange(dim), np.arange(dim))  # n0 + n1
    out = np.take(amplitudes, total, axis=1)
    out *= rungs
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
