"""Truncated Fock-space states: mode splits, state families, validation.

A single bosonic mode is split into the part overlapping a spatial region
(amplitude ``q0``) and the complementary part (amplitude ``q1``), with
``q0**2 + q1**2 == 1``.  States live on the truncated number basis
``|0>, ..., |N>``.  A thermal state is the one number betaE in (0, +inf];
+inf is the zero-temperature state, the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

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
    "Custom",
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

SPLIT_NORM_TOL = 1e-12
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
    """Real overlap amplitudes (q0, q1) of a mode with a region and its complement."""

    q0: float
    q1: float

    def __post_init__(self) -> None:
        q0 = float(self.q0)
        q1 = float(self.q1)
        if not (math.isfinite(q0) and math.isfinite(q1)):
            raise ValidationError("mode split amplitudes must be finite")
        if q0 < 0.0 or q1 < 0.0:
            raise ValidationError("mode split amplitudes must be nonnegative")
        if abs(q0 * q0 + q1 * q1 - 1.0) > SPLIT_NORM_TOL:
            raise ValidationError(
                f"mode split not normalized: q0^2 + q1^2 = {q0 * q0 + q1 * q1!r}"
            )
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "_q0sq", q0 * q0)
        object.__setattr__(self, "_q1sq", q1 * q1)

    @classmethod
    def from_q0sq(cls, q0sq: float) -> "ModeSplit":
        """Build a split from the region overlap probability q0**2.

        The given probability is kept exactly, so formulas stated in
        terms of q0**2 do not pick up sqrt/square round-trip noise.
        """
        q0sq = float(q0sq)
        if not 0.0 <= q0sq <= 1.0:
            raise ValidationError(f"q0sq must lie in [0, 1], got {q0sq!r}")
        split = cls(math.sqrt(q0sq), math.sqrt(1.0 - q0sq))
        object.__setattr__(split, "_q0sq", q0sq)
        object.__setattr__(split, "_q1sq", 1.0 - q0sq)
        return split

    @property
    def q0sq(self) -> float:
        return self._q0sq

    @property
    def q1sq(self) -> float:
        return self._q1sq


@dataclass(frozen=True)
class FockVector:
    """Amplitudes psi_0..psi_N of a normalized pure state in the number basis."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("coefficients must form a nonempty 1-D sequence")
        if not (np.all(np.isfinite(coeffs.real)) and np.all(np.isfinite(coeffs.imag))):
            raise ValidationError("coefficients must be finite")
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
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
    trace_defect = float(np.max(np.abs(np.trace(elems, axis1=-2, axis2=-1) - 1.0)))
    if trace_defect > TRACE_TOL:
        out.append(Violation("trace", trace_defect))
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
class Custom:
    """Arbitrary pure state given by explicit amplitudes."""

    state: FockVector

    def __post_init__(self) -> None:
        if not isinstance(self.state, FockVector):
            raise ValidationError("custom state must wrap a FockVector")


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
        if any(not math.isfinite(w) or w < 0.0 for w in weights):
            raise ValidationError("mixture weights must be finite and nonnegative")
        if abs(math.fsum(weights) - 1.0) > STATE_NORM_TOL:
            raise ValidationError(f"mixture weights must sum to 1, got {math.fsum(weights)!r}")
        if any(not isinstance(s, FockVector) for s in states):
            raise ValidationError("mixture states must be FockVectors")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)


StateFamily = Union[Number, Coherent, Thermal, Custom, Mixture]


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
    lam = abs(alpha) ** 2
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
        Number, Coherent, Custom (yield a FockVector), or Thermal, Mixture
        (yield a DensityMatrix).
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
    if isinstance(family, Custom):
        coeffs, discarded = _truncate_amplitudes(family.state.coeffs, policy, "custom state")
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


def number_expectation(
    state: Union[FockVector, DensityMatrix, np.ndarray],
) -> float:
    """Mean occupation sum(n * P(n)) of a pure or mixed state."""
    if isinstance(state, FockVector):
        probs = state.probabilities()
    elif isinstance(state, DensityMatrix):
        probs = state.diagonal()
    else:
        arr = np.asarray(state)
        if arr.ndim == 1:
            probs = np.abs(arr.astype(complex)) ** 2
        elif arr.ndim == 2:
            probs = arr.diagonal().real
        else:
            raise ValidationError("state must be a vector or a square matrix")
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
    if not np.all(np.isfinite(xs)) or np.any(np.diff(xs) <= 0.0):
        raise ValidationError("positions must be finite and strictly increasing")
    ws = np.abs(arr[:, 1]) ** 2
    if not np.all(np.isfinite(ws)):
        raise ValidationError("profile values must be finite")
    a, b = float(region[0]), float(region[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise ValidationError(f"region must be an interval (a, b) with a <= b, got {region!r}")
    if xs.size == 1:
        raise ValidationError("at least two samples are needed for quadrature")
    total = _piecewise_linear_integral(xs, ws, xs[0], xs[-1])
    if total <= 0.0:
        raise ValidationError("profile has zero norm over the sampled range")
    lo, hi = max(a, float(xs[0])), min(b, float(xs[-1]))
    if lo >= hi:
        return 0.0
    q0sq = _piecewise_linear_integral(xs, ws, lo, hi) / total
    return min(max(q0sq, 0.0), 1.0)
