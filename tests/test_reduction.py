"""Reduction series, closed forms, and the effective temperature map."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import cat_vector, number_vector, pad_matrix, spectral_mixture, split_from_amplitude
from probeview import (
    Coherent,
    FockVector,
    Mixture,
    ModeSplit,
    Number,
    Thermal,
    TruncationError,
    TruncationPolicy,
    ValidationError,
    beta_prime,
    binomial_pmf,
    compare_states,
    expand_two_mode,
    materialize,
    number_expectation,
    partial_trace_numeric,
    reduce_coherent,
    reduce_mixed,
    reduce_number_state,
    reduce_pure_general,
    reduce_pure_states,
    reduce_state,
    reduce_thermal,
    validate_density_matrix,
)
from probeview.reduction import _binomial_diagonals, _gram, _kraus_factors, _loss_amplitudes

# fixed-seed random amplitudes for property checks
_RNG = np.random.default_rng(20240816)


def _random_state(dim: int) -> FockVector:
    raw = _RNG.standard_normal(dim) + 1j * _RNG.standard_normal(dim)
    return FockVector(raw / np.linalg.norm(raw))


class TestBinomialPmf:
    def test_zero_success_probability(self):
        assert binomial_pmf(5, 0.0, 0) == 1.0
        assert binomial_pmf(5, 0.0, 2) == 0.0

    def test_certain_success(self):
        assert binomial_pmf(5, 1.0, 5) == 1.0
        assert binomial_pmf(5, 1.0, 4) == 0.0

    def test_symmetric_midpoint(self):
        assert binomial_pmf(2, 0.5, 1) == 0.5

    def test_frozen_value(self):
        # C(10,3) * 0.3^3 * 0.7^7 = 66706983/250000000 exactly
        assert binomial_pmf(10, 0.3, 3) == pytest.approx(0.266827932, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            binomial_pmf(3, 0.5, 4)
        with pytest.raises(ValidationError):
            binomial_pmf(-1, 0.5, 0)
        with pytest.raises(ValidationError):
            binomial_pmf(3, 1.5, 1)
        with pytest.raises(ValidationError):
            binomial_pmf(3, 0.5, -1)
        with pytest.raises(ValidationError, match="n must be an integer >= 0, got True"):
            binomial_pmf(True, 0.5, 0)
        with pytest.raises(ValidationError, match="i must be an integer >= 0, got True"):
            binomial_pmf(3, 0.5, True)

    @given(
        st.integers(min_value=0, max_value=140),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sums_to_one(self, n, p):
        total = math.fsum(binomial_pmf(n, p, i) for i in range(n + 1))
        assert abs(total - 1.0) <= 1e-14

    @given(
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_index_reversal_symmetry(self, n, p):
        for i in range(n + 1):
            assert abs(binomial_pmf(n, p, i) - binomial_pmf(n, 1.0 - p, n - i)) <= 1e-13

    def test_large_n_fallback_consistent(self):
        # straddle the exact-integer/log-gamma switchover
        lo = binomial_pmf(1000, 0.5, 500)
        hi = binomial_pmf(1001, 0.5, 500)
        assert lo == pytest.approx(math.comb(1000, 500) * 0.5**1000, rel=1e-13)
        assert hi == pytest.approx(math.comb(1001, 500) * 0.5**1001, rel=1e-10)


class TestReduceNumberState:
    def test_vacuum_invariant(self):
        rho = reduce_number_state(0, ModeSplit(0.37))
        assert rho.elems.shape == (1, 1)
        assert rho.elems[0, 0] == 1.0

    def test_fully_outside_region(self):
        rho = reduce_number_state(3, ModeSplit(0.0))
        assert np.allclose(rho.diagonal(), [1.0, 0.0, 0.0, 0.0], rtol=0.0, atol=0.0)

    def test_two_photon_half(self):
        rho = reduce_number_state(2, ModeSplit(0.5))
        assert np.allclose(rho.diagonal(), [0.25, 0.5, 0.25], rtol=0.0, atol=1e-15)
        assert np.allclose(rho.elems, np.diag(rho.diagonal()), rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("n", [1, 5, 17, 64])
    @pytest.mark.parametrize("q0sq", [0.1, 0.5, 0.9])
    def test_trace_compensated(self, n, q0sq):
        diag = reduce_number_state(n, ModeSplit(q0sq)).diagonal()
        assert abs(math.fsum(diag) - 1.0) <= 1e-14

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            reduce_number_state(-1, ModeSplit(0.5))
        with pytest.raises(ValidationError, match="n must be an integer >= 0, got True"):
            reduce_number_state(True, ModeSplit(0.5))

    @pytest.mark.parametrize("q0sq", [0.0, 1e-300, 1e-6, 0.3, 0.5, 1.0 - 1e-6, 1.0])
    def test_stacked_diagonals_match_each_state(self, q0sq):
        # oracle-check builds its closed forms for |0>..|max_n> as this one stack
        split = ModeSplit(q0sq)
        diagonal = np.arange(41)
        stack = np.zeros((41, 41, 41), dtype=complex)
        stack[:, diagonal, diagonal] = _binomial_diagonals(range(41), split)
        for n in range(41):
            padded = pad_matrix(reduce_number_state(n, split).elems, 41)
            assert np.array_equal(stack[n].view(np.uint64), padded.view(np.uint64))


    @pytest.mark.parametrize("q0sq", [0.0, 5e-324, 1e-300, 1e-6, 0.3, 0.5, 1.0 - 1e-6, 1.0])
    def test_diagonals_equal_binomial_pmf_bitwise(self, q0sq):
        # exact-comb rows up to _EXACT_COMB_LIMIT = 1000, then the per-entry log-gamma path
        split = ModeSplit(q0sq)
        occupations = [*range(70), 200, 999, 1000, 1001, 1200]
        diags = _binomial_diagonals(occupations, split)
        assert diags.shape == (len(occupations), 1201)
        for row, n in zip(diags, occupations):
            expected = np.array([binomial_pmf(n, q0sq, i) for i in range(n + 1)])
            assert row[: n + 1].tobytes() == expected.tobytes()
            assert not row[n + 1 :].any()

class TestReducePureGeneral:
    def test_identity_split_keeps_state(self):
        report = reduce_pure_general(number_vector(1), ModeSplit(1.0))
        assert np.array_equal(report.rho0.elems, np.diag([0.0, 1.0]).astype(complex))

    def test_equal_superposition_frozen_matrix(self):
        # brute-force two-mode value: off-diagonal is q0/2 = 1/(2 sqrt 2)
        report = reduce_pure_general(cat_vector(), ModeSplit(0.5))
        expected = np.array([[0.75, 0.3535533905932738], [0.3535533905932738, 0.25]])
        assert np.allclose(report.rho0.elems, expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("q0sq", [0.3, 0.7])
    def test_off_diagonal_scales_with_amplitude(self, q0sq):
        report = reduce_pure_general(cat_vector(), ModeSplit(q0sq))
        assert report.rho0.elems[0, 1].real == pytest.approx(math.sqrt(q0sq) / 2.0, abs=1e-15)

    def test_number_two_matches_binomial(self):
        report = reduce_pure_general(number_vector(2), ModeSplit(0.5))
        assert np.allclose(report.rho0.diagonal(), [0.25, 0.5, 0.25], rtol=0.0, atol=1e-15)

    def test_report_bookkeeping(self):
        report = reduce_pure_general(_random_state(5), ModeSplit(0.4))
        assert report.rho0.dim == 5

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            reduce_pure_general(np.array([1.0, 0.0]), ModeSplit(0.5))

    @pytest.mark.parametrize("n", range(13))
    def test_number_states_match_closed_form(self, n):
        # the series and the binomial closed form must agree elementwise
        for q0sq in np.linspace(0.0, 1.0, 11):
            split = ModeSplit(q0sq)
            series = reduce_pure_general(number_vector(n), split).rho0.elems
            closed = reduce_number_state(n, split).elems
            assert np.max(np.abs(series - closed)) <= 1e-12

    @given(
        st.integers(min_value=1, max_value=9),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_output_is_physical(self, dim, q0sq, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = FockVector(raw / np.linalg.norm(raw))
        rho = reduce_pure_general(psi, ModeSplit(q0sq)).rho0
        assert validate_density_matrix(rho.elems) == []
        assert abs(float(np.trace(rho.elems).real) - 1.0) <= 1e-10
        assert float(np.linalg.eigvalsh(rho.elems)[0]) >= -1e-10

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**31 - 1))
    def test_identity_and_vacuum_limits(self, dim, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = FockVector(raw / np.linalg.norm(raw))
        kept = reduce_pure_general(psi, ModeSplit(1.0)).rho0.elems
        assert np.max(np.abs(kept - np.outer(psi.coeffs, psi.coeffs.conj()))) <= 1e-12
        dropped = reduce_pure_general(psi, ModeSplit(0.0)).rho0.elems
        vacuum = np.zeros((dim, dim))
        vacuum[0, 0] = 1.0
        assert np.max(np.abs(dropped - vacuum)) <= 1e-12

    @given(
        st.integers(min_value=1, max_value=9),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_mean_occupation_scales_with_overlap(self, dim, q0sq, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = FockVector(raw / np.linalg.norm(raw))
        rho = reduce_pure_general(psi, ModeSplit(q0sq)).rho0
        assert number_expectation(rho) == pytest.approx(
            q0sq * number_expectation(psi), abs=1e-9
        )


class TestReducePureStates:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_stack_equals_each_state_alone(self, dim, count, q0sq, seed):
        states = [_seeded_state(dim, seed + k) for k in range(count)]
        split = ModeSplit(q0sq)
        stacked = reduce_pure_states(states, split)
        assert stacked.shape == (count, dim, dim)
        for k, psi in enumerate(states):
            assert np.array_equal(stacked[k], reduce_pure_general(psi, split).rho0.elems)
        assert validate_density_matrix(stacked) == []
        assert np.all(np.diagonal(stacked, axis1=1, axis2=2).imag == 0.0)

    def test_vacuum_limit_is_exact(self):
        stacked = reduce_pure_states([_random_state(3), _random_state(3)], ModeSplit(0.0))
        vacuum = np.zeros((3, 3), dtype=complex)
        vacuum[0, 0] = 1.0
        assert np.array_equal(stacked, np.stack([vacuum, vacuum]))

    def test_input_validation(self):
        split = ModeSplit(0.5)
        with pytest.raises(ValidationError):
            reduce_pure_states([], split)
        with pytest.raises(ValidationError):
            reduce_pure_states([_random_state(3), np.array([1.0, 0.0, 0.0])], split)
        with pytest.raises(ValidationError):
            reduce_pure_states([_random_state(3), _random_state(4)], split)


class TestReduceMixed:
    def test_singleton_equals_pure(self):
        psi = _random_state(4)
        split = ModeSplit(0.6)
        mixed = reduce_mixed(Mixture((1.0,), (psi,)), split).rho0.elems
        pure = reduce_pure_general(psi, split).rho0.elems
        assert np.array_equal(mixed, pure)

    def test_identity_split_keeps_weights(self):
        mix = Mixture((0.5, 0.5), (number_vector(0), number_vector(1)))
        rho = reduce_mixed(mix, ModeSplit(1.0)).rho0
        assert np.allclose(rho.diagonal(), [0.5, 0.5], rtol=0.0, atol=0.0)

    def test_binomial_mixture_frozen(self):
        # 0.5*B(1, 1/2) + 0.5*B(2, 1/2) -> diag(0.375, 0.5, 0.125)
        mix = Mixture((0.5, 0.5), (number_vector(1), number_vector(2)))
        rho = reduce_mixed(mix, ModeSplit(0.5)).rho0
        assert np.allclose(rho.diagonal(), [0.375, 0.5, 0.125], rtol=0.0, atol=1e-15)

    def test_rejects_non_mixture(self):
        with pytest.raises(ValidationError):
            reduce_mixed(number_vector(1), ModeSplit(0.5))

    def test_diagonal_is_exactly_real(self):
        mix = Mixture((0.3, 0.7), (_seeded_state(9, 1), _seeded_state(5, 2)))
        rho = reduce_mixed(mix, ModeSplit(0.4)).rho0.elems
        assert np.all(rho.diagonal().imag == 0.0)


_LARGE_Q0SQ = (1e-6, 0.5, 1.0 - 1e-6)


def _seeded_state(dim: int, seed: int) -> FockVector:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FockVector(raw / np.linalg.norm(raw))


class TestOneGramPath:
    @pytest.mark.parametrize("q0sq", _LARGE_Q0SQ)
    @pytest.mark.parametrize("support", [8, 256])
    def test_pure_stack_and_mixture_agree_bitwise(self, support, q0sq):
        # every driver forms G G^dagger in the one routine, so the results share every bit
        psi = _seeded_state(support + 1, support + 7)
        split = ModeSplit(q0sq)
        pure = reduce_pure_general(psi, split).rho0.elems
        assert np.array_equal(pure, reduce_pure_states((psi,), split)[0])
        assert np.array_equal(pure, reduce_mixed(Mixture((1.0,), (psi,)), split).rho0.elems)


@functools.lru_cache(maxsize=None)
def _large_reduction(support: int, q0sq: float):
    """One random state of support N and its reduction, shared by the large-N checks."""
    psi = _seeded_state(support + 1, support)
    return psi, reduce_pure_general(psi, ModeSplit(q0sq)).rho0


def _mp_element(psi: np.ndarray, q0sq: float, i: int, j: int) -> complex:
    """<i|rho0|j> from the series, summed with 40 significant digits."""
    with mpmath.workdps(40):
        q0sq_mp = mpmath.mpf(q0sq)
        q1sq_mp = 1 - q0sq_mp
        total = mpmath.mpc(0)
        weight = mpmath.mpf(1)  # sqrt(C(o+i, i) C(o+j, j)) q1**(2o), exact term ratio
        for o in range(psi.size - max(i, j)):
            if o:
                weight *= q1sq_mp * mpmath.sqrt(mpmath.mpf((o + i) * (o + j))) / o
            total += mpmath.mpc(psi[o + i]) * mpmath.mpc(psi[o + j]).conjugate() * weight
        return complex(total * q0sq_mp ** (mpmath.mpf(i + j) / 2))


class TestKernelLargeN:
    # parametrized, not hypothesis: each reduction at N = 1024 takes about a
    # tenth of a second, and the full gate on it as long again
    @pytest.mark.parametrize("support", [256, 1024])
    @pytest.mark.parametrize("q0sq", _LARGE_Q0SQ)
    def test_trace_and_mean_occupation(self, support, q0sq):
        psi, rho = _large_reduction(support, q0sq)
        # the result was gated by its Gram rounding bound; the public Cholesky gate agrees
        assert validate_density_matrix(rho.elems) == []
        assert rho.dim == support + 1
        assert abs(complex(np.trace(rho.elems)) - 1.0) <= 1e-10
        expected = q0sq * number_expectation(psi)
        assert abs(number_expectation(rho) - expected) <= 1e-10 * expected

    def test_small_overlap_at_n_1100_does_not_overflow(self):
        # the former pairwise series overflowed to inf here and failed validation
        psi = _seeded_state(1101, 1100)
        rho = reduce_pure_general(psi, ModeSplit(1e-4)).rho0
        assert rho.dim == 1101
        assert abs(complex(np.trace(rho.elems)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("q0sq", _LARGE_Q0SQ)
    def test_matches_high_precision_series(self, q0sq):
        psi, rho = _large_reduction(1024, q0sq)
        for i, j in [(0, 0), (0, 1), (2, 7), (40, 41), (300, 333)]:
            expected = _mp_element(psi.coeffs, q0sq, i, j)
            assert abs(rho.elems[i, j] - expected) <= 1e-13


def _unskipped(states, weights, split):
    """sum_c w_c G_c G_c^dagger as one product over every row of the amplitude table."""
    amps = _loss_amplitudes(max(state.dim for state in states), split)
    stacked = np.hstack([_kraus_factors(state.coeffs, amps) for state in states])
    return _gram(stacked, np.repeat(weights, [state.dim for state in states]))


class TestZeroRowSkip:
    """Amplitude rows that underflowed to zero are left out of the product, with the same bits."""

    @pytest.mark.parametrize("q0sq", [1e-300, 1e-6])
    @pytest.mark.parametrize("dim", [257, 1025])
    def test_pure_matches_the_whole_product(self, dim, q0sq):
        split = ModeSplit(q0sq)
        psi = _seeded_state(dim, dim + 3)
        amps = _loss_amplitudes(dim, split)
        rows = 1 + int(np.flatnonzero(amps.any(axis=1))[-1])
        assert rows < dim
        rho = reduce_pure_general(psi, split).rho0.elems
        # array_equal counts -0.0 equal to 0.0
        assert np.array_equal(rho, _unskipped((psi,), (1.0,), split))
        assert not np.any(rho[rows:]) and not np.any(rho[:, rows:])

    @pytest.mark.parametrize("q0sq", [1e-300, 1e-6])
    def test_mixture_with_unequal_supports_matches_the_whole_product(self, q0sq):
        weights = (0.2, 0.5, 0.3)
        states = tuple(_seeded_state(dim, dim) for dim in (257, 40, 3))
        split = ModeSplit(q0sq)
        rho = reduce_mixed(Mixture(weights, states), split).rho0.elems
        assert np.array_equal(rho, _unskipped(states, weights, split))

    def test_a_row_zero_in_column_0_is_kept(self):
        # at q0**2 = 1e-6 and dim 257, A[k, 0] is zero from row 108 on, but rows up to 125
        # are nonzero further right; cutting at column 0's support would lose them
        amps = _loss_amplitudes(257, ModeSplit(1e-6))
        assert 1 + int(np.flatnonzero(amps[:, 0])[-1]) < 1 + int(np.flatnonzero(amps.any(axis=1))[-1]) == 126
        psi = _seeded_state(257, 11)
        rho = reduce_pure_general(psi, ModeSplit(1e-6)).rho0.elems
        assert np.any(rho[108:])  # subnormal entries, as far as row 119 for this state


def _oracle_reduction(states, weights, split, dim):
    """sum_c w_c Tr_1 |psi_c><psi_c| on the explicit two-mode basis, cut at dim - 1."""
    cutoff = max(dim - 1, 1)
    return sum(
        weight * pad_matrix(partial_trace_numeric(expand_two_mode(psi, split, cutoff)).elems, cutoff + 1)
        for weight, psi in zip(weights, states)
    )


class TestKernelMatchesOracle:
    @given(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_pure(self, dim, q0sq, seed):
        psi = _seeded_state(dim, seed)
        split = ModeSplit(q0sq)
        rho = reduce_pure_general(psi, split).rho0.elems
        oracle = _oracle_reduction((psi,), (1.0,), split, dim)
        assert np.max(np.abs(pad_matrix(rho, oracle.shape[0]) - oracle)) <= 1e-12

    @given(
        st.lists(st.integers(min_value=1, max_value=64), min_size=2, max_size=4, unique=True),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_mixture_with_unequal_supports(self, dims, q0sq, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.1, 1.0, len(dims))
        weights = tuple(float(w) for w in raw / raw.sum())
        states = tuple(_seeded_state(d, seed + k) for k, d in enumerate(dims))
        split = ModeSplit(q0sq)
        rho = reduce_mixed(Mixture(weights, states), split).rho0.elems
        oracle = _oracle_reduction(states, weights, split, max(dims))
        assert np.max(np.abs(pad_matrix(rho, oracle.shape[0]) - oracle)) <= 1e-12


class TestReduceCoherent:
    def test_identity_split(self):
        assert reduce_coherent(1.0, ModeSplit(1.0)) == Coherent(1.0 + 0.0j)

    def test_vacuum_split(self):
        assert reduce_coherent(2.3 + 1.0j, ModeSplit(0.0)) == Coherent(0.0j)

    def test_amplitude_scales(self):
        reduced = reduce_coherent(2.0, split_from_amplitude(0.5))
        assert reduced.alpha == 1.0 + 0.0j

    def test_matches_series_at_cutoff_32(self):
        split = split_from_amplitude(0.5)
        psi = materialize(Coherent(2.0), TruncationPolicy(32)).state
        series = reduce_pure_general(psi, split).rho0
        target = materialize(reduce_coherent(2.0, split), TruncationPolicy(32)).state
        pure = np.outer(target.coeffs, target.coeffs.conj())
        result = compare_states(pure, series)
        assert result.fidelity_if_pure is not None
        assert result.fidelity_if_pure >= 1.0 - 1e-10

    @pytest.mark.parametrize("q0sq", [1e-6, 0.5, 1.0 - 1e-6])
    def test_kernel_matches_closed_form_at_large_amplitude(self, q0sq):
        # |alpha|^2 = 400 at cutoff 700: the kernel's amplitude table and the
        # closed form's projector agree over the whole q0sq range
        policy = TruncationPolicy(700)
        split = ModeSplit(q0sq)
        kernel = reduce_pure_general(materialize(Coherent(20.0), policy).state, split).rho0.elems
        coeffs = materialize(reduce_coherent(20.0, split), policy).state.coeffs
        assert np.max(np.abs(kernel - np.outer(coeffs, coeffs.conj()))) <= 1e-12

    @given(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_series_purity_stays_one(self, alpha, q0sq):
        psi = materialize(Coherent(alpha), TruncationPolicy(48)).state
        rho = reduce_pure_general(psi, ModeSplit(q0sq)).rho0
        assert float(np.sum(np.abs(rho.elems) ** 2)) == pytest.approx(1.0, abs=1e-8)


class TestBetaPrime:
    def test_full_overlap_unchanged(self):
        assert beta_prime(0.7, 1.0) == 0.7

    def test_frozen_ln3(self):
        # exp(betaE) = 2 at q0^2 = 1/2 maps to beta'E = ln 3
        assert beta_prime(math.log(2.0), 0.5) == pytest.approx(math.log(3.0), abs=1e-13)

    def test_frozen_ln5(self):
        assert beta_prime(math.log(2.0), 0.25) == pytest.approx(math.log(5.0), abs=1e-13)

    def test_vacuum_limit_signaled(self):
        # at q0 = 0 the reduced state is the vacuum, whose beta'E is +inf
        assert beta_prime(1.0, 0.0) == math.inf
        assert beta_prime(math.log(2.0), 0.0) == math.inf

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            beta_prime(1.0, 1.5)
        with pytest.raises(ValidationError):
            beta_prime(-1.0, 0.5)
        for bad in (0.0, math.nan):
            with pytest.raises(ValidationError):
                beta_prime(bad, 0.5)

    @pytest.mark.parametrize("q0sq", [0.0, 1e-300, 0.5, 1.0])
    def test_zero_temperature_input_stays_vacuum(self, q0sq):
        assert beta_prime(math.inf, q0sq) == math.inf

    def test_extreme_cold_input(self):
        assert beta_prime(800.0, 0.5) == pytest.approx(800.0 + math.log(2.0), rel=1e-13)

    @given(st.floats(min_value=1e-3, max_value=50.0), st.floats(min_value=1e-6, max_value=1.0))
    def test_never_hotter_than_input(self, beta, q0sq):
        assert beta_prime(beta, q0sq) >= beta * (1.0 - 1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=1.6e3),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    @example(2.0, 1e-310)
    @example(2.0, 5e-324)
    @example(1e-3, 5e-324)
    def test_finite_for_every_positive_overlap(self, beta, q0sq):
        # (exp(betaE) - 1) / q0^2 overflows at subnormal q0^2, but beta' does not
        result = beta_prime(beta, q0sq)
        assert math.isfinite(result)
        assert result >= beta

    @given(st.floats(min_value=1e-3, max_value=30.0), st.floats(min_value=1e-6, max_value=1.0))
    def test_mean_occupation_identity(self, beta_energy, q0sq):
        # exp(beta'E) - 1 = (exp(betaE) - 1) / q0^2 rearranges to n' = q0^2 n
        bpe = beta_prime(beta_energy, q0sq)
        lhs = math.expm1(bpe)
        rhs = math.expm1(beta_energy) / q0sq
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize(
        "beta_energy,q0sq",
        [(0.2, 0.25), (math.log(2.0), 0.5), (5.0, 0.75), (2.0, 1e-310), (2.0, 5e-324), (1e-3, 5e-324)],
    )
    def test_high_precision_reference(self, beta_energy, q0sq):
        with mpmath.workdps(40):
            expected = mpmath.log((q0sq + mpmath.e**beta_energy - 1) / q0sq)
        assert beta_prime(beta_energy, q0sq) == pytest.approx(
            float(expected), rel=1e-14
        )


class TestReduceThermal:
    def test_identity_split(self):
        reduced = reduce_thermal(0.9, ModeSplit(1.0))
        assert reduced == Thermal(0.9)

    def test_vacuum_limit(self):
        assert reduce_thermal(1.0, ModeSplit(0.0)) == Thermal(math.inf)
        assert reduce_thermal(math.log(2.0), ModeSplit(0.0)) == Thermal(math.inf)

    def test_matches_number_state_mixture(self):
        # reduce the thermal weights rung by rung and compare diagonals
        cutoff = 48
        split = ModeSplit(0.5)
        weights = materialize(Thermal(math.log(2.0)), TruncationPolicy(cutoff)).state.diagonal()
        mix = Mixture(tuple(weights / weights.sum()), tuple(number_vector(n) for n in range(cutoff + 1)))
        by_mixture = reduce_mixed(mix, split).rho0
        reduced = reduce_thermal(math.log(2.0), split)
        assert reduced.beta_energy == pytest.approx(math.log(3.0), abs=1e-13)
        closed = materialize(reduced, TruncationPolicy(cutoff)).state
        assert np.max(np.abs(by_mixture.diagonal() - closed.diagonal())) <= 1e-10

    @given(st.floats(min_value=0.6, max_value=3.0), st.floats(min_value=0.05, max_value=1.0))
    def test_mean_occupation_scales(self, beta_energy, q0sq):
        split = ModeSplit(q0sq)
        original = materialize(Thermal(beta_energy), TruncationPolicy(64)).state
        reduced = materialize(reduce_thermal(beta_energy, split), TruncationPolicy(64)).state
        assert number_expectation(reduced) == pytest.approx(
            q0sq * number_expectation(original), abs=1e-9
        )


class TestReduceState:
    """reduce_state against the route it takes for each family, bit for bit."""

    POLICY = TruncationPolicy(24)

    @pytest.mark.parametrize("q0sq", [0.0, 0.3, 1.0])
    def test_number_takes_the_binomial_closed_form(self, q0sq):
        split = ModeSplit(q0sq)
        rho = reduce_state(Number(3), split, self.POLICY)
        assert np.array_equal(rho.elems, reduce_number_state(3, split).elems)

    def test_number_past_the_cutoff_raises(self):
        with pytest.raises(TruncationError):
            reduce_state(Number(25), ModeSplit(0.5), self.POLICY)

    @pytest.mark.parametrize("q0sq", [0.0, 0.3, 1.0])
    def test_coherent_is_the_projector_on_the_reduced_amplitude(self, q0sq):
        split = ModeSplit(q0sq)
        elems = reduce_state(Coherent(1.2 + 0.4j), split, self.POLICY).elems
        coeffs = materialize(reduce_coherent(1.2 + 0.4j, split), self.POLICY).state.coeffs
        projector = np.outer(coeffs, coeffs.conj())
        off_diagonal = ~np.eye(coeffs.size, dtype=bool)
        assert np.array_equal(elems[off_diagonal], projector[off_diagonal])
        # the diagonal keeps its real part; its imaginary rounding noise is dropped
        assert np.array_equal(np.diagonal(elems), np.diagonal(projector).real)

    @pytest.mark.parametrize("q0sq", [0.0, 0.3, 1.0])
    def test_thermal_takes_its_closed_form(self, q0sq):
        split = ModeSplit(q0sq)
        rho = reduce_state(Thermal(2.0), split, self.POLICY)
        expected = materialize(reduce_thermal(2.0, split), self.POLICY).state
        assert np.array_equal(rho.elems, expected.elems)

    @pytest.mark.parametrize("q0sq", [0.0, 0.3, 1.0])
    def test_custom_and_mixture_take_the_kernel(self, q0sq):
        split = ModeSplit(q0sq)
        psi = _seeded_state(5, 17)
        rho = reduce_state(psi, split, self.POLICY)
        assert np.array_equal(rho.elems, reduce_pure_general(psi, split).rho0.elems)
        mix = Mixture((0.25, 0.75), (number_vector(2), psi))
        rho = reduce_state(mix, split, self.POLICY)
        assert np.array_equal(rho.elems, reduce_mixed(mix, split).rho0.elems)

    def test_custom_longer_than_the_cutoff_is_cut_first(self):
        split = ModeSplit(0.3)
        policy = TruncationPolicy(2)
        psi = FockVector(np.array([0.6, 0.8j, 0.0, 0.0, 0.0, 0.0]))
        rho = reduce_state(psi, split, policy)
        assert rho.dim == 3
        cut = materialize(psi, policy).state
        assert np.array_equal(rho.elems, reduce_pure_general(cut, split).rho0.elems)
        with pytest.raises(TruncationError):
            reduce_state(FockVector(np.array([0.6, 0.0, 0.0, 0.8])), split, policy)

    def test_mixture_past_the_cutoff_raises(self):
        # a tail of 0.6 past |3>, for the state alone and as a mixture's one component
        flat = FockVector(np.ones(10) / math.sqrt(10.0))
        for family in (flat, Mixture((1.0,), (flat,))):
            with pytest.raises(TruncationError):
                reduce_state(family, ModeSplit(0.5), TruncationPolicy(3))

    def test_mixture_components_are_cut_not_padded(self):
        split = ModeSplit(0.3)
        policy = TruncationPolicy(2)
        psi = FockVector(np.array([0.6, 0.8j, 0.0, 0.0, 0.0, 0.0]))
        mix = Mixture((0.25, 0.75), (number_vector(1), psi))
        rho = reduce_state(mix, split, policy)
        assert rho.dim == 3
        cut = Mixture(mix.weights, (number_vector(1), materialize(psi, policy).state))
        assert np.array_equal(rho.elems, reduce_mixed(cut, split).rho0.elems)
        # components within the cutoff keep their own length
        short = Mixture((0.5, 0.5), (number_vector(0), number_vector(1)))
        assert reduce_state(short, split, policy).dim == 2

    @pytest.mark.parametrize("family", ["number", 3, None])
    def test_unknown_family_raises(self, family):
        with pytest.raises(ValidationError, match="unknown state family"):
            reduce_state(family, ModeSplit(0.5), self.POLICY)


class TestChannelComposition:
    @pytest.mark.parametrize("qa,qb", [(0.8, 0.7), (0.5, 0.9), (0.95, 0.3)])
    def test_general_path_composes(self, qa, qb):
        psi = _random_state(6)
        first = reduce_pure_general(psi, split_from_amplitude(qa)).rho0
        second = reduce_mixed(spectral_mixture(first), split_from_amplitude(qb)).rho0
        direct = reduce_pure_general(psi, split_from_amplitude(qa * qb)).rho0
        assert np.max(np.abs(second.elems - direct.elems)) <= 1e-9

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    def test_coherent_amplitudes_compose(self, qa, qb, alpha):
        step = reduce_coherent(reduce_coherent(alpha, split_from_amplitude(qa)).alpha,
                               split_from_amplitude(qb))
        direct = reduce_coherent(alpha, split_from_amplitude(qa * qb))
        assert abs(step.alpha - direct.alpha) <= 1e-12 * max(1.0, abs(alpha))

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_thermal_temperatures_compose(self, beta_energy, qa_sq, qb_sq):
        step = beta_prime(beta_prime(beta_energy, qa_sq), qb_sq)
        direct = beta_prime(beta_energy, qa_sq * qb_sq)
        assert step == pytest.approx(direct, rel=1e-12)
