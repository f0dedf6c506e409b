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
    return ModeSplit(q0 * q0)


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


def per_element_fmt(values) -> list[str]:
    """%.17g of every element in C order, one conversion each; -0.0 prints as "0".

    The reference that the CLI's batch formatter, which formats each
    distinct magnitude once, is checked against.
    """
    return ["%.17g" % v for v in (np.ravel(values) + 0.0).tolist()]


def per_state_random_vectors(count: int, max_support: int, seed: int) -> list[FockVector]:
    """random_fock_vectors drawn one state at a time: a real, then an imaginary draw each.

    The reference that the library's single draw of every normal is checked
    against, bit for bit.
    """
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        raw = rng.standard_normal(max_support + 1) + 1j * rng.standard_normal(max_support + 1)
        states.append(FockVector(raw / np.linalg.norm(raw)))
    return states


def dense_ladder_expansion(psi: FockVector, split: ModeSplit, cutoff: int) -> np.ndarray:
    """sum_n psi_n (a_q^dag)^n / sqrt(n!) |0,0> with the dense split ladder, as a grid."""
    adag = build_split_creation(split, cutoff)
    rung = np.zeros((cutoff + 1) ** 2, dtype=complex)
    rung[0] = 1.0
    acc = psi.coeffs[0] * rung
    for n in range(1, psi.dim):
        rung = adag @ rung / math.sqrt(n)
        acc = acc + psi.coeffs[n] * rung
    return acc.reshape(cutoff + 1, cutoff + 1)


def literal_marginal(grid: np.ndarray) -> np.ndarray:
    """(rho_0)_{ij} = sum_k grid[i, k] conj(grid[j, k]) by an explicit index contraction."""
    return np.einsum("ik,jk->ij", grid, grid.conj())
