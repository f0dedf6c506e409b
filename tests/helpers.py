"""Shared test utilities."""

import math

import numpy as np

from probeview import DensityMatrix, FockVector, Mixture, ModeSplit, TwoModeVector, ValidationError


def number_vector(n: int) -> FockVector:
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    return FockVector(coeffs)


def cat_vector() -> FockVector:
    return FockVector(np.array([1.0, 1.0]) / math.sqrt(2.0))


def split_from_amplitude(q0: float) -> ModeSplit:
    return ModeSplit(q0, math.sqrt(1.0 - q0 * q0))


def spectral_mixture(rho: DensityMatrix) -> Mixture:
    """Rewrite a density matrix as a mixture of its eigenvectors.

    Lets a mixed state be fed back into the pure-state reduction path;
    tiny negative eigenvalues from rounding are clipped to zero.
    """
    vals, vecs = np.linalg.eigh(rho.elems)
    weights = np.clip(vals, 0.0, None)
    weights = weights / weights.sum()
    states = tuple(
        FockVector(vecs[:, k] / np.linalg.norm(vecs[:, k])) for k in range(vals.size)
    )
    return Mixture(tuple(float(w) for w in weights), states)


def pad_matrix(elems: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    out[: elems.shape[0], : elems.shape[1]] = elems
    return out


# Dense ladder operators: the reference that the oracle's matrix-free
# expansion is checked against.


def creation_matrix(cutoff: int) -> np.ndarray:
    """Creation operator on |0>..|cutoff>: elems[n+1, n] = sqrt(n+1)."""
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 1:
        raise ValidationError(f"cutoff must be an integer >= 1, got {cutoff!r}")
    dim = int(cutoff) + 1
    elems = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(dim - 1)
    elems[ns + 1, ns] = np.sqrt(ns + 1.0)
    return elems


def annihilation_matrix(cutoff: int) -> np.ndarray:
    """Annihilation operator, the conjugate transpose of the creation matrix."""
    return creation_matrix(cutoff).conj().T


def build_split_creation(split: ModeSplit, cutoff: int) -> np.ndarray:
    """Dense split creation operator q0*(adag x 1) + q1*(1 x adag).

    Acts on the (cutoff+1)**2-dimensional product space; meant for
    small cutoffs (operator size grows as (cutoff+1)^4).
    """
    adag = creation_matrix(cutoff)
    eye = np.eye(adag.shape[0], dtype=complex)
    return split.q0 * np.kron(adag, eye) + split.q1 * np.kron(eye, adag)


def total_number_marginal(state: TwoModeVector) -> np.ndarray:
    """Probability of finding n0 + n1 = n excitations in total."""
    probs = np.abs(state.coeffs) ** 2
    n0, n1 = np.indices(probs.shape)
    return np.bincount((n0 + n1).ravel(), weights=probs.ravel())
