"""Reduced density matrices of bosonic Fock states restricted to a spatial region.

Restricting a single-mode state to the part of its mode inside a region
(overlap amplitude q0) and tracing out the rest is a pure-loss channel
of transmissivity q0**2.  This package provides one general kernel for
the reduced state of pure inputs and their mixtures, closed forms for
number, coherent, and thermal inputs, an independent brute-force two-mode
verifier, and sweep helpers plus a CLI that emit the derived curves as
CSV/JSON.
"""

from .analysis import SweepResult, cat_purity, oracle_check, purity, purity_sweep, thermal_sweep
from .fock import (
    Coherent,
    DensityMatrix,
    FockVector,
    Materialized,
    Mixture,
    ModeSplit,
    Number,
    StateFamily,
    Thermal,
    TruncationError,
    TruncationPolicy,
    ValidationError,
    Violation,
    materialize,
    number_expectation,
    overlap_from_profile,
    validate_density_matrix,
)
from .oracle import (
    CompareResult,
    TwoModeVector,
    compare_states,
    expand_two_mode,
    partial_trace_numeric,
    random_fock_vectors,
)
from .reduction import (
    ReductionReport,
    beta_prime,
    binomial_pmf,
    reduce_coherent,
    reduce_mixed,
    reduce_number_state,
    reduce_pure_general,
    reduce_pure_states,
    reduce_state,
    reduce_thermal,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
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
    "ValidationError",
    "TruncationError",
    "materialize",
    "validate_density_matrix",
    "number_expectation",
    "overlap_from_profile",
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
    "TwoModeVector",
    "CompareResult",
    "expand_two_mode",
    "partial_trace_numeric",
    "compare_states",
    "random_fock_vectors",
    "SweepResult",
    "purity",
    "purity_sweep",
    "thermal_sweep",
    "cat_purity",
    "oracle_check",
]
