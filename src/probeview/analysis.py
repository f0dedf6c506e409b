"""Derived quantities: purity, parameter sweeps over the region overlap, and the oracle check.

Sweeps recompute the closed forms directly (binomial purity, effective
inverse temperature) rather than caching kernel output; they are exact
and fast.  Each returns one (rows, 3) float array, parameters then value,
which the CLI serializes in blocks of rows under its own column names.
The oracle check runs the closed forms and the kernel against the
independent two-mode oracle.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

from .fock import (
    _check_int, _check_q0sq, _violations, DensityMatrix, FockVector, ModeSplit, ValidationError,
    validate_density_matrix,
)
from .oracle import expand_two_mode, partial_trace_numeric, random_fock_vectors
from .reduction import _beta_prime, _binomial_diagonals, reduce_pure_states

__all__ = [
    "purity",
    "purity_sweep",
    "thermal_sweep",
    "cat_purity",
    "RANDOM_STATE_COUNT",
    "oracle_check",
]

# seeded random states of support max_n that oracle_check reduces at every grid point
RANDOM_STATE_COUNT = 100


def purity(rho: Union[DensityMatrix, np.ndarray]) -> float:
    """Tr[rho^2] = sum_ij |rho_ij|^2, in (0, 1]; 1 iff the state is pure."""
    if isinstance(rho, DensityMatrix):
        elems = rho.elems
    else:
        elems = np.asarray(rho, dtype=complex)
        violations = validate_density_matrix(elems)
        if violations:
            raise ValidationError(f"invalid density matrix: {violations}")
    return float(np.sum(np.abs(elems) ** 2))


def _nonempty(values: list, name: str) -> list:
    if not values:
        raise ValidationError(f"{name} is empty", param=name)
    return values


def purity_sweep(n_values: Iterable[int], q0sq_grid: Iterable[float]) -> np.ndarray:
    """Purity of reduced number states over a (n, q0**2) grid.

    A (rows, 3) float array with one row (n, q0sq, purity) per grid point,
    ordered by n then q0sq; duplicate grid entries are collapsed.  The
    reduced |n><n| is diagonal, B(n, q0**2), so each q0sq builds one
    binomial table, dropped before the next, and no density matrix; a
    purity sums the squares over the dense (n+1) x (n+1) layout of that
    diagonal, so it has the bits of ``purity`` of the matrix.
    """
    ns = _nonempty(sorted({_check_int(n, "n_values", 0) for n in n_values}), "n_values")
    splits = _nonempty([ModeSplit(q) for q in sorted({float(q) for q in q0sq_grid})], "q0sq_grid")
    table = np.empty((len(ns), len(splits), 3))
    table[..., 0] = np.array(ns, dtype=float)[:, None]
    table[..., 1] = [split.q0sq for split in splits]
    for j, split in enumerate(splits):
        diagonals = _binomial_diagonals(ns, split)
        for k, n in enumerate(ns):
            table[k, j, 2] = np.sum(np.square(np.diag(diagonals[k, : n + 1])))
    return table.reshape(-1, 3)


def thermal_sweep(q0sq_values: Iterable[float], *, inv_betaE: Iterable[float]) -> np.ndarray:
    """Reduced-state temperature map over a (1/betaE, q0**2) grid.

    A (rows, 3) float array with one row (inv_betaE, q0sq, inv_beta_primeE)
    per grid point, ordered by the normalized input temperature 1/betaE,
    as given, then q0sq.  At q0sq = 1 the reduced state is the input, so
    1/beta'E is the given 1/betaE, bit for bit.  At q0sq = 0, beta'E = +inf:
    the reduced state is the vacuum, whose temperature 1/beta'E is 0.
    """
    qs = _nonempty([_check_q0sq(q) for q in sorted({float(q) for q in q0sq_values})], "q0sq_values")
    temperatures = _nonempty(sorted({float(t) for t in inv_betaE}), "inv_betaE")
    if not all(0.0 < t < math.inf and 1.0 / t < math.inf for t in temperatures):
        raise ValidationError(
            "inv_betaE values must be positive and finite, with a finite betaE = 1/value", param="inv_betaE"
        )
    table = np.empty((len(temperatures), len(qs), 3))
    table[..., 0] = np.array(temperatures)[:, None]
    table[..., 1] = qs
    for row, t in zip(table, temperatures):
        row[:, 2] = [t if q0sq == 1.0 else 1.0 / _beta_prime(1.0 / t, q0sq) for q0sq in qs]
    return table.reshape(-1, 3)


def cat_purity(q0sq: float) -> float:
    """Purity of the reduced equal superposition (|0> + |1>)/sqrt(2): (2 - q0^2 + q0^4)/2."""
    q0sq = _check_q0sq(q0sq)
    return 0.5 * (2.0 - q0sq + q0sq * q0sq)


def oracle_check(max_n: int, seed: int, q0sq_grid: Sequence[float]) -> tuple[tuple[str, int, float], ...]:
    """Rows (check, cases, max_abs_diff): closed forms and kernel against the two-mode oracle.

    Each q0sq expands |0>..|max_n> and the random states in one call, gates the
    oracle, kernel and zero-padded closed-form stacks once each (the two Gram
    stacks' PSD gate by the rounding bound of fock._violations) and compares
    whole stacks.  A stack that fails a gate raises ValidationError, as does a
    bad or empty grid, max_n or seed, each checked before the first expansion.
    """
    splits = _nonempty([ModeSplit(q0sq) for q0sq in q0sq_grid], "q0sq_grid")
    max_n = _check_int(max_n, "max_n", 1)
    randoms = random_fock_vectors(RANDOM_STATE_COUNT, max_n, seed)
    basis = [FockVector(row) for row in np.eye(max_n + 1, dtype=complex)]
    worst_number = worst_random = 0.0
    diagonal = np.arange(max_n + 1)
    closed = np.zeros((max_n + 1, max_n + 1, max_n + 1), dtype=complex)
    for split in splits:
        numeric = partial_trace_numeric(expand_two_mode(basis + randoms, split, max_n))
        series = reduce_pure_states(randoms, split)
        closed[:, diagonal, diagonal] = _binomial_diagonals(range(max_n + 1), split)
        for violations in (
            _violations(numeric, gram_inner=max_n + 1),
            _violations(series, gram_inner=max_n + 1),
            validate_density_matrix(closed),
        ):
            if violations:
                raise ValidationError(f"invalid density matrix: {violations}")
        worst_number = max(worst_number, float(np.max(np.abs(closed - numeric[: max_n + 1]))))
        worst_random = max(worst_random, float(np.max(np.abs(series - numeric[max_n + 1 :]))))
    return (
        ("number_state_closed_form", len(basis) * len(splits), worst_number),
        ("random_state_series", len(randoms) * len(splits), worst_random),
    )
