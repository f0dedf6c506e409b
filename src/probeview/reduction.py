"""Partial trace of a single-mode state over the complement of a region.

Restricting a state with mode amplitudes (q0, q1) to the region is the
same as sending it through a lossy channel of transmissivity q0**2: the
matrix elements of the reduced state are

    <i|rho0|j> = sum_o psi_{o+i} conj(psi_{o+j})
                 * sqrt(C(o+i, i) C(o+j, j)) * q0**(i+j) * q1**(2*o).

The sum factorises as rho0 = G G^dagger with

    G[k, o] = psi_{k+o} * sqrt(C(k+o, k) * q0**(2k) * q1**(2o)),

whose column o is the Kraus operator K_o of the pure-loss channel applied
to psi (Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)).  For a state
supported on |0>..|N> every sum is finite, so the result is exact up to
rounding; a mixture reduces to sum_c w_c G_c G_c^dagger in one matrix
product.  Number, coherent, and thermal inputs additionally admit closed
forms; the thermal one maps betaE to beta'E, which is +inf (the vacuum)
at q0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fock import (
    Coherent,
    DensityMatrix,
    FockVector,
    Mixture,
    ModeSplit,
    Number,
    StateFamily,
    Thermal,
    TruncationPolicy,
    ValidationError,
    _check_beta_energy,
    _check_int,
    _check_q0sq,
    materialize,
)

__all__ = [
    "ReductionReport",
    "binomial_pmf",
    "reduce_number_state",
    "reduce_pure_general",
    "reduce_pure_states",
    "reduce_mixed",
    "reduce_coherent",
    "beta_prime",
    "reduce_thermal",
    "reduce_state",
]

# float(comb(n, n//2)) overflows a little above n = 1029
_EXACT_COMB_LIMIT = 1000


@dataclass(frozen=True)
class ReductionReport:
    """Reduced state of the general kernel."""

    rho0: DensityMatrix


def binomial_pmf(n: int, p: float, i: int) -> float:
    """Probability of i successes in n trials with success probability p.

    Uses the exact integer binomial coefficient with float powers, which
    keeps sum_i pmf(n, p, i) within 1e-14 of 1 well past n = 200; above
    the float-overflow bound for C(n, i) it falls back to log-gamma.
    """
    n, i = _check_int(n, "n", 0), _check_int(i, "i", 0)
    if i > n:
        raise ValidationError(f"success count {i} exceeds trial count {n}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"success probability must lie in [0, 1], got {p!r}")
    if p == 0.0:
        return 1.0 if i == 0 else 0.0
    if p == 1.0:
        return 1.0 if i == n else 0.0
    if n <= _EXACT_COMB_LIMIT:
        return math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(i + 1)
        - math.lgamma(n - i + 1)
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def _binomial_diagonals(occupations: Sequence[int], split: ModeSplit) -> np.ndarray:
    """Row k is the diagonal of the reduced |n><n|, n = occupations[k], zero-padded.

    Entry [k, i] is binomial_pmf(n, q0**2, i), bit for bit, for i <= n and 0
    beyond, over max(occupations) + 1 columns; unvalidated.  The rows with
    n <= _EXACT_COMB_LIMIT are float(C(n, i)) * p**i * (1-p)**(n-i) as one
    array product, in binomial_pmf's order, with the powers taken from one
    list of p**i and one of (1-p)**j built by Python's ** per call, as
    binomial_pmf takes them.  A longer row calls binomial_pmf per entry.
    """
    p = split.q0sq
    counts = np.array(occupations)
    width = int(counts.max()) + 1
    exact = min(width, _EXACT_COMB_LIMIT + 1)
    ups = np.array([p**i for i in range(exact)])
    downs = np.array([(1.0 - p) ** j for j in range(exact)])
    short = counts <= _EXACT_COMB_LIMIT
    lags = counts[short, None] - np.arange(exact)  # n - i
    combs = np.zeros(lags.shape)
    combs[lags >= 0] = [float(math.comb(n, i)) for n in counts[short].tolist() for i in range(n + 1)]
    diags = np.zeros((len(occupations), width))
    # C(n, i) = 0 zeroes the entries with i > n, whatever down-power they pick up
    diags[short, :exact] = combs * ups * downs[np.maximum(lags, 0)]
    for row, n in zip(diags, occupations):
        if n > _EXACT_COMB_LIMIT:
            row[: n + 1] = [binomial_pmf(n, p, i) for i in range(n + 1)]
    return diags


def reduce_number_state(n: int, split: ModeSplit) -> DensityMatrix:
    """Reduced state of |n>: diagonal binomial distribution B(n, q0**2)."""
    diag = _binomial_diagonals((_check_int(n, "n", 0),), split)[0]
    return DensityMatrix(np.diag(diag.astype(complex)))


def _loss_amplitudes(dim: int, split: ModeSplit) -> np.ndarray:
    """A[k, o] = sqrt(C(k+o, k) * q0**(2k) * q1**(2o)) for k, o < dim.

    Each entry is the square root of a binomial probability, so it is
    built in log space from a table of log-factorials and never overflows.
    At q0 = 1 the o = 0 column is exactly 1 and every other column is 0.
    """
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(2 * dim - 1)])
    with np.errstate(divide="ignore"):
        log_q = 0.5 * np.log([[split.q0sq], [split.q1sq]])
    powers = np.zeros((2, dim))  # n * log(q), exactly 0 at n = 0 even where log(q) = -inf
    powers[:, 1:] = np.arange(1, dim) * log_q
    row, col = 0.5 * log_fact[:dim] - powers
    log_amp = 0.5 * sliding_window_view(log_fact, dim)
    log_amp -= row[:, None]
    log_amp -= col
    return np.exp(log_amp, out=log_amp)


def _kraus_factors(coeffs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """G[..., k, o] = psi[..., k+o] * A[k, o] for amplitudes of shape (..., n).

    Column o of each G is the Kraus operator K_o applied to psi; ``amps``
    is the table of ``_loss_amplitudes`` with at least n columns.
    """
    size = coeffs.shape[-1]
    padded = np.zeros(coeffs.shape[:-1] + (amps.shape[0] + size - 1,), dtype=complex)
    padded[..., :size] = coeffs
    return amps[:, :size] * sliding_window_view(padded, size, axis=-1)


def _gram(factors: np.ndarray, weights, rows: int | None = None) -> np.ndarray:
    """(factors * weights) @ factors^dagger over the last two axes, diagonal exactly real.

    Rows of ``factors`` from ``rows`` on must be zero, so those rows of the
    product are zero: they are left as zeros, and the multiplication forms
    only the rows before them.  Its column count and inner dimension stay
    those of the whole product, which BLAS blocks alike, so every element
    formed equals the whole product's bit for bit (OpenBLAS; a product cut
    to fewer columns moves last bits there).  ``factors`` is conjugated in
    place, not into a copy, to keep the peak memory down.
    """
    size = factors.shape[-2]
    weighted = factors[..., :rows, :] * weights
    rho = np.zeros(factors.shape[:-2] + (size, size), dtype=complex)
    np.matmul(weighted, np.conjugate(factors, out=factors).swapaxes(-2, -1), out=rho[..., :rows, :])
    diag = np.arange(size)
    rho.imag[..., diag, diag] = 0.0  # rounding leaves an imaginary part there
    return rho


def _vacuum_stack(count: int, dim: int) -> np.ndarray:
    rho = np.zeros((count, dim, dim), dtype=complex)
    rho[:, 0, 0] = 1.0
    return rho


def _reduced_elems(
    weights: tuple[float, ...], states: tuple[FockVector, ...], split: ModeSplit
) -> np.ndarray:
    """sum_c w_c G_c G_c^dagger over the pure components c, as one matrix product.

    At q0 = 1 every G_c is psi_c in column 0 and zeros elsewhere, so the
    result is exactly sum_c w_c psi_c psi_c^dagger.  The amplitude table's
    rows from ``rows`` on, one past its last row with a nonzero entry,
    underflowed to zero (131 of 257 at q0**2 = 1e-6), so _gram skips the
    same rows of the product.  The last nonzero row is the test, not
    column 0: row k can be zero at o = 0 and nonzero at larger o.
    """
    dim = max(state.dim for state in states)
    if split.q0 == 0.0:
        return _vacuum_stack(1, dim)[0]
    amps = _loss_amplitudes(dim, split)
    # A[1, 0] = q0 > 0, so a cut leaves at least 2 rows: one row would take numpy's vector path
    rows = dim - int(np.argmax(amps[::-1].any(axis=1)))
    factors = [_kraus_factors(state.coeffs, amps) for state in states]
    stacked = factors[0] if len(factors) == 1 else np.hstack(factors)
    return _gram(stacked, np.repeat(weights, [state.dim for state in states]), rows)


def reduce_pure_states(states: Sequence[FockVector], split: ModeSplit) -> np.ndarray:
    """Reduce equally sized pure states at one split: the stack of G_s G_s^dagger.

    Every factor G_s comes from one shared amplitude table, and the
    products run as one stacked matrix multiplication.

    Parameters
    ----------
    states
        Normalized amplitudes psi_0..psi_N, all of the same length N+1.
    split
        Region overlap q0**2; the amplitudes q0, q1 derive from it.

    Returns
    -------
    numpy.ndarray
        Shape (len(states), N+1, N+1); entry s is the reduced state of
        ``states[s]``.  The matrices are not validated: pass the stack to
        ``validate_density_matrix``, or wrap an entry in ``DensityMatrix``.
    """
    states = tuple(states)
    if not states or any(not isinstance(state, FockVector) for state in states):
        raise ValidationError("input states must be a nonempty sequence of FockVectors")
    dim = states[0].dim
    if any(state.dim != dim for state in states):
        raise ValidationError("input states must all have the same dimension")
    if split.q0 == 0.0:
        return _vacuum_stack(len(states), dim)
    amps = _loss_amplitudes(dim, split)
    stacked = np.concatenate([state.coeffs for state in states]).reshape(len(states), dim)
    return _gram(_kraus_factors(stacked, amps), 1.0)


def reduce_pure_general(psi: FockVector, split: ModeSplit) -> ReductionReport:
    """Reduce a pure state to the region: rho0 = G G^dagger.

    Parameters
    ----------
    psi
        Normalized amplitudes psi_0..psi_N.
    split
        Region overlap q0**2; the amplitudes q0, q1 derive from it.

    Returns
    -------
    ReductionReport
        Reduced density matrix of dimension N+1.
    """
    if not isinstance(psi, FockVector):
        raise ValidationError("input state must be a FockVector")
    return ReductionReport(DensityMatrix._adopt(_reduced_elems((1.0,), (psi,), split), psi.dim))


def reduce_mixed(family: Mixture, split: ModeSplit) -> ReductionReport:
    """Reduce a convex mixture of pure states: rho0 = sum_c w_c G_c G_c^dagger.

    The partial trace is linear, so the reduced mixture is the weighted
    sum of the reduced components, of the largest component dimension.
    """
    if not isinstance(family, Mixture):
        raise ValidationError("input must be a Mixture")
    elems = _reduced_elems(family.weights, family.states, split)
    return ReductionReport(DensityMatrix._adopt(elems, sum(state.dim for state in family.states)))


def reduce_coherent(alpha: complex, split: ModeSplit) -> Coherent:
    """Reduced coherent state: exactly the coherent state with amplitude q0*alpha."""
    return Coherent(complex(alpha) * split.q0)


def beta_prime(beta_energy: float, q0_sq: float) -> float:
    """Effective beta'E of a thermal state of the given betaE after restriction to the region.

    beta'E = ln(1 + (exp(betaE) - 1) / q0^2), which is >= betaE for
    q0^2 <= 1 and equals betaE at q0^2 = 1.  It depends on beta and the
    mode energy only through betaE, as the pure-loss channel's n' = q0^2 n
    does.  It is finite for every q0^2 in (0, 1], subnormal values
    included, and +inf at q0^2 = 0, where the reduced state is the vacuum.
    """
    return _beta_prime(_check_beta_energy(beta_energy), _check_q0sq(q0_sq))


def _beta_prime(be: float, q0_sq: float) -> float:
    """beta_prime of a checked betaE and q0^2, for a caller that has checked its whole grid."""
    if q0_sq == 0.0:
        return math.inf
    if q0_sq == 1.0:
        return be
    if be > 690.0:
        # expm1 would overflow; use ln((q0^2 - 1) e^{-bE} + 1) + bE - ln q0^2
        bpe = be + math.log1p((q0_sq - 1.0) * math.exp(-be)) - math.log(q0_sq)
    else:
        bpe = math.log1p(math.expm1(be) / q0_sq)
        if math.isinf(bpe):
            # the quotient overflows at tiny q0^2; split the logarithm instead
            growth = math.expm1(be)
            bpe = math.log(growth) - math.log(q0_sq) + math.log1p(q0_sq / growth)
    return bpe


def reduce_thermal(beta_energy: float, split: ModeSplit) -> Thermal:
    """Reduced thermal state: thermal again, at beta'E = beta_prime(betaE, q0^2).

    At q0 = 0, beta'E = +inf and the result is the vacuum.
    """
    return Thermal(beta_prime(beta_energy, split.q0sq))


def reduce_state(family: StateFamily, split: ModeSplit, policy: TruncationPolicy) -> DensityMatrix:
    """Reduced state of any family at one split, by the tightest applicable route.

    Number, coherent and thermal inputs take their closed forms under ``policy``; custom
    states and mixtures take the general kernel, each pure state longer than cutoff + 1
    amplitudes cut to them first (never padded).
    """

    def cut(state: FockVector) -> FockVector:
        return materialize(state, policy).state if state.dim > policy.cutoff + 1 else state

    if isinstance(family, Number):
        materialize(family, policy)  # the cutoff must hold |n>, as for a mixture component
        return reduce_number_state(family.n, split)
    if isinstance(family, Coherent):
        coeffs = materialize(reduce_coherent(family.alpha, split), policy).state.coeffs
        projector = np.outer(coeffs, coeffs.conj())
        np.fill_diagonal(projector.imag, 0.0)  # c * conj(c) can round to a nonzero imaginary part
        return DensityMatrix._adopt(projector, 1)
    if isinstance(family, Thermal):
        return materialize(reduce_thermal(family.beta_energy, split), policy).state
    if isinstance(family, FockVector):
        return reduce_pure_general(cut(family), split).rho0
    if isinstance(family, Mixture):
        return reduce_mixed(Mixture(family.weights, tuple(map(cut, family.states))), split).rho0
    raise ValidationError(f"unknown state family: {family!r}")
