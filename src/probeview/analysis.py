"""Derived quantities: purity, parameter sweeps over the region overlap, and the oracle check.

Sweeps recompute the closed forms directly (binomial purity, effective
inverse temperature) rather than caching kernel output; they are exact
and fast, and they are what the CLI serializes.  The oracle check runs the
closed forms and the kernel against the independent two-mode oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .fock import _violations, DensityMatrix, FockVector, ModeSplit, ValidationError, validate_density_matrix
from .oracle import expand_two_mode, partial_trace_numeric, random_fock_vectors
from .reduction import _binomial_diagonals, beta_prime, reduce_pure_states

__all__ = [
    "SweepResult",
    "purity",
    "purity_sweep",
    "thermal_sweep",
    "cat_purity",
    "RANDOM_STATE_COUNT",
    "oracle_check",
]

# seeded random states of support max_n that oracle_check reduces at every grid point
RANDOM_STATE_COUNT = 100


@dataclass(frozen=True)
class SweepResult:
    """Rows of (parameters..., output) with a fixed column schema.

    Rows are ordered ascending by the first column and the parameter
    part (all but the last column) of each row is unique.
    """

    rows: tuple[tuple[float, ...], ...]
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(x) for x in row) for row in self.rows)
        schema = tuple(str(name) for name in self.schema)
        if len(schema) < 2:
            raise ValidationError("schema needs at least one parameter and one output column")
        if any(len(row) != len(schema) for row in rows):
            raise ValidationError("every row must match the schema length")
        firsts = [row[0] for row in rows]
        if any(a > b for a, b in zip(firsts, firsts[1:])):
            raise ValidationError("rows must be ordered ascending by the first column")
        params = [row[:-1] for row in rows]
        if len(set(params)) != len(params):
            raise ValidationError("duplicate parameter tuples in sweep rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "schema", schema)


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


def purity_sweep(n_values: Iterable[int], q0sq_grid: Iterable[float]) -> SweepResult:
    """Purity of reduced number states over a (n, q0**2) grid.

    One row (n, q0sq, purity) per grid point, ordered by n then q0sq;
    duplicate grid entries are collapsed.  The reduced |n><n| is diagonal,
    B(n, q0**2), so each q0sq builds one binomial table, dropped before the
    next, and no density matrix; a purity sums the squares over the dense
    (n+1) x (n+1) layout of that diagonal, so it has the bits of ``purity``
    of the matrix.
    """
    ns = sorted({int(n) for n in n_values})
    if not ns or ns[0] < 0:
        raise ValidationError("n_values must be a nonempty collection of nonnegative integers")
    qs = sorted({float(q) for q in q0sq_grid})
    if not qs or qs[0] < 0.0 or qs[-1] > 1.0:
        raise ValidationError("q0sq_grid values must lie in [0, 1]")
    values = np.empty((len(ns), len(qs)))
    for j, q0sq in enumerate(qs):
        table = _binomial_diagonals(ns, ModeSplit(q0sq))
        for k, n in enumerate(ns):
            values[k, j] = np.sum(np.square(np.diag(table[k, : n + 1])))
    rows = [(float(n), q0sq, float(values[k, j])) for k, n in enumerate(ns) for j, q0sq in enumerate(qs)]
    return SweepResult(tuple(rows), ("n", "q0sq", "purity"))


def thermal_sweep(q0sq_values: Iterable[float], betaE_grid: Iterable[float]) -> SweepResult:
    """Reduced-state temperature map over a (1/betaE, q0**2) grid.

    One row (inv_betaE, q0sq, inv_beta_primeE) per grid point, ordered by
    the normalized input temperature 1/betaE, then q0sq.  At q0sq = 0,
    beta'E = +inf: the reduced state is the vacuum, whose temperature
    1/beta'E is 0.
    """
    qs = sorted({float(q) for q in q0sq_values})
    if not qs or qs[0] < 0.0 or qs[-1] > 1.0:
        raise ValidationError("q0sq_values must lie in [0, 1]")
    bes = sorted({float(be) for be in betaE_grid})
    if not bes or bes[0] <= 0.0 or not all(map(math.isfinite, bes)):
        raise ValidationError("betaE_grid values must be positive and finite")
    rows = []
    for be in reversed(bes):  # descending betaE = ascending 1/betaE
        for q0sq in qs:
            rows.append((1.0 / be, q0sq, 1.0 / beta_prime(be, q0sq)))
    return SweepResult(tuple(rows), ("inv_betaE", "q0sq", "inv_beta_primeE"))


def cat_purity(q0sq: float) -> float:
    """Purity of the reduced equal superposition (|0> + |1>)/sqrt(2): (2 - q0^2 + q0^4)/2."""
    q0sq = ModeSplit(q0sq).q0sq  # checks the range
    return 0.5 * (2.0 - q0sq + q0sq * q0sq)


def oracle_check(max_n: int, seed: int, q0sq_grid: Sequence[float]) -> tuple[tuple[str, int, float], ...]:
    """Rows (check, cases, max_abs_diff): closed forms and kernel against the two-mode oracle.

    Each q0sq expands |0>..|max_n> and the random states in one call, gates the
    oracle, kernel and zero-padded closed-form stacks once each (the two Gram
    stacks' PSD gate by the rounding bound of fock._violations) and compares
    whole stacks.  A stack that fails a gate raises ValidationError, as do a
    max_n below 1 and an empty grid, which would check nothing.
    """
    if isinstance(max_n, bool) or not isinstance(max_n, (int, np.integer)) or max_n < 1:
        raise ValidationError(f"max_n must be an integer >= 1, got {max_n!r}")
    if len(q0sq_grid) == 0:
        raise ValidationError("q0sq_grid is empty, so oracle_check would check nothing")
    basis = [FockVector(row) for row in np.eye(max_n + 1, dtype=complex)]
    randoms = random_fock_vectors(RANDOM_STATE_COUNT, max_n, seed)
    worst_number = worst_random = 0.0
    diagonal = np.arange(max_n + 1)
    closed = np.zeros((max_n + 1, max_n + 1, max_n + 1), dtype=complex)
    for q0sq in q0sq_grid:
        split = ModeSplit(q0sq)
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
        ("number_state_closed_form", len(basis) * len(q0sq_grid), worst_number),
        ("random_state_series", len(randoms) * len(q0sq_grid), worst_random),
    )
