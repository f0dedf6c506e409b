"""Derived quantities: purity and parameter sweeps over the region overlap.

Sweeps recompute the closed forms directly (binomial purity, effective
inverse temperature) rather than caching kernel output; they are exact
and fast, and they are what the CLI serializes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .fock import (
    DensityMatrix,
    FockVector,
    ModeSplit,
    VacuumLimitError,
    ValidationError,
    validate_density_matrix,
)
from .reduction import beta_prime, reduce_number_state, reduce_pure_general

__all__ = [
    "ConsistencyError",
    "SweepResult",
    "purity",
    "purity_sweep",
    "thermal_sweep",
    "cat_purity",
]


class ConsistencyError(RuntimeError):
    """A closed form and its numeric cross-check disagree (implementation bug)."""


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
    duplicate grid entries are collapsed.
    """
    ns = sorted({int(n) for n in n_values})
    if not ns or ns[0] < 0:
        raise ValidationError("n_values must be a nonempty collection of nonnegative integers")
    qs = sorted({float(q) for q in q0sq_grid})
    if not qs or qs[0] < 0.0 or qs[-1] > 1.0:
        raise ValidationError("q0sq_grid values must lie in [0, 1]")
    rows = []
    for n in ns:
        for q0sq in qs:
            value = purity(reduce_number_state(n, ModeSplit.from_q0sq(q0sq)))
            rows.append((float(n), q0sq, value))
    return SweepResult(tuple(rows), ("n", "q0sq", "purity"))


def thermal_sweep(q0sq_values: Iterable[float], betaE_grid: Iterable[float]) -> SweepResult:
    """Reduced-state temperature map over a (1/betaE, q0**2) grid.

    One row (inv_betaE, q0sq, inv_beta_primeE) per grid point, ordered by
    the normalized input temperature 1/betaE, then q0sq.  At q0sq = 0 the
    reduced state is the vacuum, whose temperature 1/beta'E is 0.
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
            try:
                inv_bpe = 1.0 / beta_prime(be, 1.0, q0sq)
            except VacuumLimitError:
                inv_bpe = 0.0  # the vacuum's temperature
            rows.append((1.0 / be, q0sq, inv_bpe))
    return SweepResult(tuple(rows), ("inv_betaE", "q0sq", "inv_beta_primeE"))


_CAT_CHECK_TOL = 1e-10


def cat_purity(q0sq: float) -> float:
    """Purity of the reduced equal superposition (|0> + |1>)/sqrt(2).

    Evaluates the closed form (2 - q0^2 + q0^4)/2 and cross-checks it
    against the purity of the general kernel's reduction.

    Raises
    ------
    ConsistencyError
        If closed form and kernel disagree beyond 1e-10, which would
        indicate an implementation bug.
    """
    q0sq = float(q0sq)
    if not 0.0 <= q0sq <= 1.0:
        raise ValidationError(f"q0sq must lie in [0, 1], got {q0sq!r}")
    closed = 0.5 * (2.0 - q0sq + q0sq * q0sq)
    cat = FockVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    numeric = purity(reduce_pure_general(cat, ModeSplit.from_q0sq(q0sq)).rho0)
    if abs(closed - numeric) > _CAT_CHECK_TOL:
        raise ConsistencyError(
            f"cat purity closed form {closed!r} vs kernel {numeric!r} at q0sq = {q0sq!r}"
        )
    return closed
