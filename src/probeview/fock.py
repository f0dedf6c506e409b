"""Truncated Fock-space states: mode splits, state families, validation.

A single bosonic mode is split into the part overlapping a spatial region
and the complementary part.  The split is the one number ``q0**2``, the
mode's probability weight inside the region; the amplitudes ``q0`` and
``q1`` = sqrt(1 - q0**2) are derived from it.  States live on the truncated
number basis ``|0>, ..., |N>``.  A thermal state is the one number betaE in
(0, +inf]; +inf is the zero-temperature state, the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ValidationError",
    "TruncationError",
    "ModeSplit",
    "FockVector",
    "DensityMatrix",
    "Number",
    "Coherent",
    "Thermal",
    "Mixture",
    "StateFamily",
    "TruncationPolicy",
    "Materialized",
    "Violation",
    "materialize",
    "validate_density_matrix",
    "number_expectation",
    "overlap_from_profile",
]

STATE_NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class TruncationError(RuntimeError):
    """A cutoff is too small for the requested tail tolerance."""

    def __init__(self, message: str, achieved_tail: float):
        super().__init__(f"{message} (achieved tail mass {achieved_tail:.3e})")
        self.achieved_tail = achieved_tail


@dataclass(frozen=True)
class ModeSplit:
    """Overlap probability q0**2 of a mode with a region; the complement holds the rest.

    q0**2 is kept exactly, so formulas stated in terms of it do not pick up
    sqrt/square round-trip noise; the amplitudes are derived from it.
    """

    q0sq: float

    def __post_init__(self) -> None:
        q0sq = float(self.q0sq)
        if not 0.0 <= q0sq <= 1.0:
            raise ValidationError(f"q0sq must lie in [0, 1], got {q0sq!r}")
        object.__setattr__(self, "q0sq", q0sq)

    @classmethod
    def from_q0sq(cls, q0sq: float) -> "ModeSplit":
        """Same as ModeSplit(q0sq); kept only because benchmarks/ calls it."""
        return cls(q0sq)

    @property
    def q1sq(self) -> float:
        return 1.0 - self.q0sq

    @property
    def q0(self) -> float:
        return math.sqrt(self.q0sq)

    @property
    def q1(self) -> float:
        return math.sqrt(self.q1sq)


@dataclass(frozen=True)
class FockVector:
    """Amplitudes psi_0..psi_N of a normalized pure state in the number basis."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("coefficients must form a nonempty 1-D sequence")
        if not np.isfinite(coeffs).all():  # a complex element is finite iff both parts are
            raise ValidationError("coefficients must be finite")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, which the check rejects
            norm_sq = float((np.abs(coeffs) ** 2).sum())
        if abs(norm_sq - 1.0) > STATE_NORM_TOL:
            raise ValidationError(f"state not normalized: sum |psi_n|^2 = {norm_sq!r}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def probabilities(self) -> np.ndarray:
        """Occupation probabilities |psi_n|^2."""
        return np.abs(self.coeffs) ** 2


class Violation(NamedTuple):
    """One named density-matrix defect and its magnitude."""

    kind: str
    magnitude: float


def validate_density_matrix(
    rho: Union["DensityMatrix", np.ndarray, Sequence[Sequence[complex]]],
) -> list[Violation]:
    """Check a candidate density matrix, or a stack of them, and list the defects.

    Parameters
    ----------
    rho
        Square complex matrix (or DensityMatrix) to diagnose, or a stack
        of equally sized matrices of shape (S, d, d).

    Returns
    -------
    list of Violation
        Empty iff every matrix is Hermitian within HERMITIAN_TOL, has
        unit trace within TRACE_TOL, and has no eigenvalue below
        -PSD_TOL.  For a stack each violation carries the worst magnitude
        over all its matrices.  Purely diagnostic: never raises.

    Notes
    -----
    The PSD gate reads the Hermitian part H.  One (batched) Cholesky
    factorization of H + PSD_TOL*I certifies the gate, and ``eigvalsh``
    runs only when that fails, to report the lowest eigenvalue.  Cholesky
    is backward stable, so the verdict can differ from an eigenvalue
    comparison only within rounding of the boundary -PSD_TOL.
    """
    elems = rho.elems if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return _violations(elems)


def _gamma(terms: int) -> float:
    """Higham's gamma_n = n*u / (1 - n*u) in double precision; inf once n*u reaches 1/2."""
    nu = terms * 2.0**-53
    return nu / (1.0 - nu) if nu < 0.5 else math.inf


def _gram_psd_bound(inner: int, dim: int, trace: float) -> float:
    """How far rounding can push lambda_min of a computed Gram product's Hermitian part below 0.

    A = fl(G G^dagger) of a dim x inner complex G satisfies
    |A - G G^dagger| <= sqrt(2)*gamma_{inner+2} |G| |G|^T (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.5, with the complex
    constant of section 3.6), whose 2-norm is at most that constant times
    ||G||_F^2, and G G^dagger itself is PSD whatever G is.  Forming the
    Hermitian part rounds each element once: at most 2u*||G||_F^2 more.
    ``trace`` is |tr A|: each diagonal element sums 2*inner nonnegative
    products and the trace sums dim of them, so ||G||_F^2 is at most
    trace / (1 - gamma_{2*inner+dim}).
    """
    shrink = 1.0 - _gamma(2 * inner + dim)
    if not shrink > 0.0:
        return math.inf
    return (math.sqrt(2.0) * _gamma(inner + 2) + 2.0 * 2.0**-53) * (trace / shrink)


def _violations(elems: np.ndarray, gram_inner: Optional[int] = None) -> list[Violation]:
    """validate_density_matrix on an array; ``gram_inner`` marks computed Gram products.

    With ``gram_inner`` = K every matrix must be a computed product G G^dagger,
    G with K columns (a reduce_pure_states or partial_trace_numeric stack).
    Its PSD gate is then decided by _gram_psd_bound, with ||G||_F^2 bounded
    from the computed trace, and Cholesky runs only when the bound does not
    clear PSD_TOL.  The finite, Hermitian and trace gates run either way.
    """
    out: list[Violation] = []
    if elems.ndim not in (2, 3) or elems.shape[-2] != elems.shape[-1] or elems.size == 0:
        out.append(Violation("shape", float("nan")))
        return out
    if not (np.all(np.isfinite(elems.real)) and np.all(np.isfinite(elems.imag))):
        out.append(Violation("finite", float("inf")))
        return out
    adjoint = elems.conj().swapaxes(-2, -1)
    herm_defect = float(np.max(np.abs(elems - adjoint)))
    if herm_defect > HERMITIAN_TOL:
        out.append(Violation("hermitian", herm_defect))
    traces = np.trace(elems, axis1=-2, axis2=-1)
    trace_defect = float(np.max(np.abs(traces - 1.0)))
    if trace_defect > TRACE_TOL:
        out.append(Violation("trace", trace_defect))
    if gram_inner is not None:
        trace = float(np.max(np.abs(traces)))
        if _gram_psd_bound(gram_inner, elems.shape[-1], trace) <= PSD_TOL:
            return out
    # the PSD gate reads the Hermitian part, so it still reports something
    # sensible when hermiticity itself is broken
    hermitian_part = (elems + adjoint) / 2.0
    # lambda_min >= -PSD_TOL iff H + PSD_TOL*I is positive definite, which one
    # Cholesky factorization certifies; eigvalsh only measures a failure
    try:
        np.linalg.cholesky(hermitian_part + PSD_TOL * np.eye(elems.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = float(np.min(np.linalg.eigvalsh(hermitian_part)[..., 0]))
    else:
        min_eig = -PSD_TOL  # certified lower bound: no violation
    if min_eig < -PSD_TOL:
        out.append(Violation("positive_semidefinite", min_eig))
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one matrix on the number basis."""

    elems: np.ndarray

    def __post_init__(self) -> None:
        elems = np.array(self.elems, dtype=complex)
        if elems.ndim != 2:
            raise ValidationError(f"density matrix must be 2-D, got shape {elems.shape}")
        violations = validate_density_matrix(elems)
        if violations:
            raise ValidationError(f"invalid density matrix: {violations}")
        elems.setflags(write=False)
        object.__setattr__(self, "elems", elems)

    @property
    def dim(self) -> int:
        return self.elems.shape[0]

    def diagonal(self) -> np.ndarray:
        """Occupation probabilities (real part of the diagonal)."""
        return self.elems.diagonal().real.copy()


@dataclass(frozen=True)
class Number:
    """Number state |n>."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValidationError(f"occupation must be a nonnegative integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class Coherent:
    """Coherent state |alpha> with Poissonian number statistics."""

    alpha: complex

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValidationError("coherent amplitude must be finite")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class Thermal:
    """Gibbs state with diagonal weights proportional to exp(-betaE*n).

    The state depends on beta and the mode energy E only through their
    product betaE, which may be +inf: the zero-temperature state, i.e.
    the vacuum.
    """

    beta_energy: float

    def __post_init__(self) -> None:
        beta_energy = float(self.beta_energy)
        if not beta_energy > 0.0:
            raise ValidationError(f"thermal state requires betaE in (0, +inf], got {beta_energy!r}")
        object.__setattr__(self, "beta_energy", beta_energy)


@dataclass(frozen=True)
class Mixture:
    """Convex combination of pure states with the given weights."""

    weights: tuple[float, ...]
    states: tuple[FockVector, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        states = tuple(self.states)
        if len(weights) == 0 or len(weights) != len(states):
            raise ValidationError("mixture needs equally many weights and states")
        # no weight may exceed 1 (beyond the sum's tolerance), so the sum below cannot overflow
        bad = [w for w in weights if not 0.0 <= w <= 1.0 + STATE_NORM_TOL]
        if bad:
            raise ValidationError(f"mixture weights must lie in [0, 1], got {bad[0]!r}")
        if abs(math.fsum(weights) - 1.0) > STATE_NORM_TOL:
            raise ValidationError(f"mixture weights must sum to 1, got {math.fsum(weights)!r}")
        if any(not isinstance(s, FockVector) for s in states):
            raise ValidationError("mixture states must be FockVectors")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)


StateFamily = Union[Number, Coherent, Thermal, FockVector, Mixture]


@dataclass(frozen=True)
class TruncationPolicy:
    """Basis cutoff N plus the largest tolerable neglected probability mass."""

    cutoff: int
    tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 1:
            raise ValidationError(f"cutoff must be an integer >= 1, got {self.cutoff!r}")
        tail_tol = float(self.tail_tol)
        if not 0.0 < tail_tol < 1.0:
            raise ValidationError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
        object.__setattr__(self, "cutoff", int(self.cutoff))
        object.__setattr__(self, "tail_tol", tail_tol)


class Materialized(NamedTuple):
    """Concrete truncated state plus the probability mass the cutoff discarded."""

    state: Union[FockVector, DensityMatrix]
    discarded_mass: float


def _truncate_amplitudes(coeffs: np.ndarray, policy: TruncationPolicy, what: str):
    """Pad or cut amplitudes to length cutoff+1, renormalizing after a cut."""
    dim = policy.cutoff + 1
    if coeffs.size <= dim:
        out = np.zeros(dim, dtype=complex)
        out[: coeffs.size] = coeffs
        return out, 0.0
    discarded = float(np.sum(np.abs(coeffs[dim:]) ** 2))
    if discarded >= policy.tail_tol:
        raise TruncationError(
            f"cutoff {policy.cutoff} too small for {what}: tail exceeds {policy.tail_tol:.3e}",
            achieved_tail=discarded,
        )
    kept = coeffs[:dim].copy()
    return kept / np.linalg.norm(kept), discarded


def _materialize_coherent(alpha: complex, policy: TruncationPolicy):
    # a product, not ** 2: the square of |alpha| > ~1.34e154 is inf instead of OverflowError
    try:
        lam = abs(alpha) * abs(alpha)
    except OverflowError:  # |alpha| itself exceeds the largest float
        lam = math.inf
    if lam / 2.0 > 700.0:
        # exp(-|alpha|^2 / 2) underflows; no float cutoff can represent this
        raise ValidationError(f"coherent amplitude too large to materialize: |alpha|^2 = {lam!r}")
    dim = policy.cutoff + 1
    coeffs = np.empty(dim, dtype=complex)
    coeffs[0] = math.exp(-lam / 2.0)
    for k in range(dim - 1):
        # psi_{k+1} = psi_k * alpha / sqrt(k+1); keeps every intermediate bounded
        coeffs[k + 1] = coeffs[k] * alpha / math.sqrt(k + 1)
    kept = math.fsum(float(abs(c)) ** 2 for c in coeffs)
    discarded = max(0.0, 1.0 - kept)
    if discarded >= policy.tail_tol:
        raise TruncationError(
            f"cutoff {policy.cutoff} too small for coherent |alpha|^2 = {lam:g}",
            achieved_tail=discarded,
        )
    return coeffs / math.sqrt(kept), discarded


def _materialize_thermal(family: Thermal, policy: TruncationPolicy):
    r = math.exp(-family.beta_energy)
    # geometric tail above the cutoff is exactly r**(cutoff+1)
    discarded = r ** (policy.cutoff + 1)
    if discarded >= policy.tail_tol:
        raise TruncationError(
            f"cutoff {policy.cutoff} too small for thermal betaE = {family.beta_energy:g}",
            achieved_tail=discarded,
        )
    diag = (1.0 - r) * r ** np.arange(policy.cutoff + 1, dtype=float)
    return diag / (1.0 - discarded), discarded


def materialize(family: StateFamily, policy: TruncationPolicy) -> Materialized:
    """Realize a state family on the truncated basis |0>..|cutoff>.

    Parameters
    ----------
    family
        Number, Coherent, FockVector (yield a FockVector, truncated or
        padded to the cutoff), or Thermal, Mixture (yield a DensityMatrix).
    policy
        Cutoff and the largest neglected tail mass tolerated.

    Returns
    -------
    Materialized
        The truncated, renormalized state together with the probability
        mass that truncation discarded (before renormalization).

    Raises
    ------
    TruncationError
        If the discarded mass reaches ``policy.tail_tol``.
    ValidationError
        If the family parameters are invalid.
    """
    if isinstance(family, Number):
        if family.n > policy.cutoff:
            raise TruncationError(
                f"cutoff {policy.cutoff} cannot hold number state n = {family.n}",
                achieved_tail=1.0,
            )
        coeffs = np.zeros(policy.cutoff + 1, dtype=complex)
        coeffs[family.n] = 1.0
        return Materialized(FockVector(coeffs), 0.0)
    if isinstance(family, Coherent):
        coeffs, discarded = _materialize_coherent(family.alpha, policy)
        return Materialized(FockVector(coeffs), discarded)
    if isinstance(family, FockVector):
        coeffs, discarded = _truncate_amplitudes(family.coeffs, policy, "custom state")
        return Materialized(FockVector(coeffs), discarded)
    if isinstance(family, Thermal):
        diag, discarded = _materialize_thermal(family, policy)
        return Materialized(DensityMatrix(np.diag(diag.astype(complex))), discarded)
    if isinstance(family, Mixture):
        dim = policy.cutoff + 1
        rho = np.zeros((dim, dim), dtype=complex)
        discarded_total = 0.0
        for weight, state in zip(family.weights, family.states):
            coeffs, discarded = _truncate_amplitudes(state.coeffs, policy, "mixture component")
            rho += weight * np.outer(coeffs, coeffs.conj())
            discarded_total += weight * discarded
        return Materialized(DensityMatrix(rho), discarded_total)
    raise ValidationError(f"unknown state family: {family!r}")


def number_expectation(state: Union[FockVector, DensityMatrix]) -> float:
    """Mean occupation sum(n * P(n)) of a pure or mixed state."""
    if isinstance(state, FockVector):
        probs = state.probabilities()
    elif isinstance(state, DensityMatrix):
        probs = state.diagonal()
    else:
        raise ValidationError("state must be a FockVector or a DensityMatrix")
    return float(np.arange(probs.size) @ probs)


def _piecewise_linear_integral(xs: np.ndarray, ws: np.ndarray, lo: float, hi: float) -> float:
    """Integral of the linear interpolant of (xs, ws) over [lo, hi] within the samples."""
    inner = xs[(xs > lo) & (xs < hi)]
    grid = np.concatenate(([lo], inner, [hi]))
    vals = np.interp(grid, xs, ws)
    return float(np.sum(np.diff(grid) * (vals[:-1] + vals[1:])) / 2.0)


def overlap_from_profile(
    samples: Union[Sequence[tuple[float, complex]], np.ndarray],
    region: tuple[float, float],
) -> float:
    """Region overlap probability q0**2 of a sampled 1-D mode profile.

    Parameters
    ----------
    samples
        Pairs (position, value) with strictly increasing positions.
    region
        Interval (a, b) with a <= b over which the profile's squared
        magnitude is integrated (trapezoidal rule).

    Returns
    -------
    float
        q0**2 = integral over the region of |q(x)|^2, normalized by the
        integral over the full sampled range.  A region disjoint from the
        samples yields 0.
    """
    arr = np.asarray(
        [(float(x), complex(v)) for x, v in samples] if not isinstance(samples, np.ndarray) else samples,
        dtype=complex,
    )
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValidationError("samples must be a nonempty sequence of (position, value) pairs")
    xs = arr[:, 0].real.astype(float)
    if np.any(np.imag(arr[:, 0]) != 0.0):
        raise ValidationError("positions must be real")
    with np.errstate(over="ignore"):  # a step past the largest float is inf, still positive
        increasing = np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)
    if not increasing:
        raise ValidationError("positions must be finite and strictly increasing")
    if not np.all(np.isfinite(arr[:, 1])):
        raise ValidationError("profile values must be finite")
    with np.errstate(over="ignore"):  # an overflowing square is inf, which the check rejects
        ws = np.abs(arr[:, 1]) ** 2
    if not np.all(np.isfinite(ws)):
        raise ValidationError("profile values too large: their squared magnitudes overflow")
    a, b = float(region[0]), float(region[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise ValidationError(f"region must be an interval (a, b) with a <= b, got {region!r}")
    if xs.size == 1:
        raise ValidationError("at least two samples are needed for quadrature")
    if not np.any(ws):  # decided here: zeros 2e308 apart would give the quadrature inf * 0 = NaN
        if np.any(arr[:, 1]):
            raise ValidationError("profile values too small: their squared magnitudes underflow to 0")
        raise ValidationError("profile has zero norm over the sampled range")
    # an overflowing quadrature gives inf, or NaN from inf - inf, which the check names
    with np.errstate(over="ignore", invalid="ignore"):
        total = _piecewise_linear_integral(xs, ws, xs[0], xs[-1])
    if not math.isfinite(total):
        raise ValidationError("profile norm overflows: the integral of |value|^2 exceeds the largest float")
    if total <= 0.0:  # some |value|^2 > 0, so only the products with the steps underflowed
        raise ValidationError("profile norm underflows: the integral of |value|^2 rounds to 0")
    lo, hi = max(a, float(xs[0])), min(b, float(xs[-1]))
    if lo >= hi:
        return 0.0
    # the total interpolates only at samples; a region end between two samples takes the
    # slope of |value|^2 there, which is +-inf when that step is subnormally short, and two
    # such ends of opposite slope sum to NaN
    with np.errstate(invalid="ignore"):
        q0sq = _piecewise_linear_integral(xs, ws, lo, hi) / total
    if not math.isfinite(q0sq):
        raise ValidationError("profile too steep: the slope of |value|^2 at a region end overflows")
    return min(max(q0sq, 0.0), 1.0)
