"""Brute-force two-mode cross-checks for the single-mode reduction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    annihilation_matrix,
    build_split_creation,
    cat_vector,
    creation_matrix,
    dense_ladder_expansion,
    literal_marginal,
    number_vector,
    per_state_random_vectors,
    split_from_amplitude,
    total_number_marginal,
)
from probeview import (
    FockVector,
    ModeSplit,
    TwoModeVector,
    ValidationError,
    compare_states,
    expand_two_mode,
    partial_trace_numeric,
    random_fock_vectors,
    reduce_number_state,
    reduce_pure_general,
)
from probeview.oracle import _raise_rung


class TestLadderMatrices:
    def test_creation_elements(self):
        adag = creation_matrix(3)
        assert adag.shape == (4, 4)
        assert adag[1, 0] == 1.0
        assert adag[2, 1] == pytest.approx(math.sqrt(2.0))
        assert adag[3, 2] == pytest.approx(math.sqrt(3.0))
        assert np.count_nonzero(adag) == 3

    def test_annihilation_is_adjoint(self):
        adag = creation_matrix(5)
        a = annihilation_matrix(5)
        assert np.array_equal(a, adag.conj().T)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValidationError):
            creation_matrix(0)


class TestTwoModeVector:
    def test_requires_normalization(self):
        with pytest.raises(ValidationError):
            TwoModeVector(np.ones((2, 2)))

    def test_requires_matrix(self):
        with pytest.raises(ValidationError):
            TwoModeVector(np.array([1.0, 0.0]))

    def test_total_number_marginal(self):
        coeffs = np.zeros((3, 3), dtype=complex)
        coeffs[1, 0] = coeffs[0, 1] = 1.0 / math.sqrt(2.0)
        marginal = total_number_marginal(TwoModeVector(coeffs))
        assert np.allclose(marginal, [0.0, 1.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-15)


    def test_stack_checks_each_state(self):
        good = np.zeros((2, 2), dtype=complex)
        good[0, 0] = 1.0
        assert TwoModeVector(np.stack([good, good])).coeffs.shape == (2, 2, 2)
        with pytest.raises(ValidationError, match="norm\\^2 = 2.0"):
            TwoModeVector(np.stack([good, math.sqrt(2.0) * good]))
        with pytest.raises(ValidationError, match="finite"):
            TwoModeVector(np.stack([good, np.full((2, 2), np.nan)]))


    def test_copies_a_callers_array(self):
        coeffs = np.zeros((2, 3, 3), dtype=complex)
        coeffs[:, 0, 0] = 1.0
        state = TwoModeVector(coeffs)
        assert coeffs.flags.writeable and not state.coeffs.flags.writeable
        assert not np.shares_memory(coeffs, state.coeffs)
        coeffs[0, 0, 0] = 2.0
        assert state.coeffs[0, 0, 0] == 1.0
        # a non-contiguous array is checked through a contiguous copy
        swapped = TwoModeVector(np.ones((3, 3), dtype=complex).T / 3.0)
        assert swapped.coeffs.shape == (3, 3)

    def test_expansion_is_checked_without_a_copy(self):
        states = random_fock_vectors(8, 100, seed=2)
        two = expand_two_mode(states, ModeSplit(0.4), 100)
        assert not two.coeffs.flags.writeable
        fresh = np.array(two.coeffs)
        tracemalloc.start()
        try:
            adopted = TwoModeVector._adopt(fresh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert adopted.coeffs is fresh and not fresh.flags.writeable
        # the norms and the finite check allocate nothing of the stack's size
        assert peak <= 0.01 * fresh.nbytes

def _random_vectors(dims, seed):
    rng = np.random.default_rng(seed)
    states = []
    for dim in dims:
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states.append(FockVector(raw / np.linalg.norm(raw)))
    return states


class TestStackedExpansion:
    @given(
        st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_stack_equals_each_state_alone(self, dims, q0sq, seed):
        states = _random_vectors(dims, seed)
        split = ModeSplit(q0sq)
        cutoff = max(max(dims) - 1, 1)
        stacked = expand_two_mode(states, split, cutoff)
        marginals = partial_trace_numeric(stacked)
        # the complement marginals are the region marginals of the transposed grids
        others = partial_trace_numeric(TwoModeVector(stacked.coeffs.swapaxes(-2, -1)))
        assert marginals.shape == (len(states), cutoff + 1, cutoff + 1)
        for k, psi in enumerate(states):
            alone = expand_two_mode(psi, split, cutoff)
            assert np.array_equal(stacked.coeffs[k], alone.coeffs)
            assert np.array_equal(marginals[k], partial_trace_numeric(alone).elems)
            swapped = TwoModeVector(alone.coeffs.swapaxes(-2, -1))
            assert np.array_equal(others[k], partial_trace_numeric(swapped).elems)

    def test_sequence_of_one_keeps_the_state_axis(self):
        psi = random_fock_vectors(1, 3, seed=4)[0]
        stacked = expand_two_mode([psi], ModeSplit(0.3), 3)
        assert stacked.coeffs.shape == (1, 4, 4)
        assert isinstance(partial_trace_numeric(stacked), np.ndarray)

    def test_rejects_empty_or_oversized_stacks(self):
        split = ModeSplit(0.5)
        with pytest.raises(ValidationError):
            expand_two_mode([], split, 2)
        with pytest.raises(ValidationError):
            expand_two_mode([number_vector(1), number_vector(3)], split, 2)
        with pytest.raises(ValidationError):
            expand_two_mode([number_vector(1), np.array([1.0, 0.0])], split, 2)


class TestSplitCreation:
    def test_identity_split_is_first_mode_ladder(self):
        op = build_split_creation(ModeSplit(1.0), 3)
        expected = np.kron(creation_matrix(3), np.eye(4))
        assert np.array_equal(op, expected)

    def test_action_on_double_vacuum(self):
        split = split_from_amplitude(0.6)
        op = build_split_creation(split, 2)
        vac = np.zeros(9)
        vac[0] = 1.0
        out = (op @ vac).reshape(3, 3)
        assert out[1, 0] == pytest.approx(0.6)
        assert out[0, 1] == pytest.approx(0.8)

    @pytest.mark.parametrize("q0", [0.0, 0.5, 1.0])
    def test_canonical_commutator(self, q0):
        # [a_q, a_q^dag] = 1 holds exactly below the truncation edge
        cutoff = 4
        split = split_from_amplitude(q0)
        adag = build_split_creation(split, cutoff)
        comm = adag.T @ adag - adag @ adag.T
        dim = cutoff + 1
        for n0 in range(dim):
            for n1 in range(dim):
                k = n0 * dim + n1
                if n0 + n1 < cutoff:
                    assert comm[k, k] == pytest.approx(1.0, abs=1e-12)

    def test_shift_application_matches_dense(self):
        # a rung on antidiagonal n goes to antidiagonal n + 1, entry k at (k, n - k)
        rng = np.random.default_rng(7)
        split = split_from_amplitude(0.7)
        cutoff = 5
        dim = cutoff + 1
        adag = build_split_creation(split, cutoff)
        total = np.add.outer(np.arange(dim), np.arange(dim))
        for n in range(cutoff):
            rung = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            grid = np.zeros((dim, dim), dtype=complex)
            grid[np.arange(n + 1), n - np.arange(n + 1)] = rung
            dense = (adag @ grid.ravel()).reshape(dim, dim)
            applied = _raise_rung(rung, split.q0, split.q1)
            expected = dense[np.arange(n + 2), n + 1 - np.arange(n + 2)]
            assert np.max(np.abs(applied - expected)) <= 1e-12
            assert not np.any(dense[total != n + 1])


class TestExpandTwoMode:
    def test_single_photon_splits(self):
        two = expand_two_mode(number_vector(1), ModeSplit(0.5), 1)
        expected = np.zeros((2, 2))
        expected[1, 0] = expected[0, 1] = 1.0 / math.sqrt(2.0)
        assert np.allclose(two.coeffs, expected, rtol=0.0, atol=1e-15)

    def test_identity_split_stays_in_first_mode(self):
        two = expand_two_mode(number_vector(2), ModeSplit(1.0), 2)
        expected = np.zeros((3, 3))
        expected[2, 0] = 1.0
        assert np.allclose(two.coeffs, expected, rtol=0.0, atol=1e-15)

    def test_equal_superposition_coefficients(self):
        two = expand_two_mode(cat_vector(), ModeSplit(0.5), 1)
        expected = np.array([[1.0 / math.sqrt(2.0), 0.5], [0.5, 0.0]])
        assert np.allclose(two.coeffs, expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_total_number_marginal_preserved(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        psi = raw / np.linalg.norm(raw)
        from probeview import FockVector

        two = expand_two_mode(FockVector(psi), split_from_amplitude(0.6), 6)
        marginal = total_number_marginal(two)
        expected = np.zeros_like(marginal)
        expected[: psi.size] = np.abs(psi) ** 2
        assert np.max(np.abs(marginal - expected)) <= 1e-12

    def test_support_beyond_cutoff_rejected(self):
        with pytest.raises(ValidationError):
            expand_two_mode(number_vector(3), ModeSplit(0.5), 2)
        # True is not the cutoff 1
        with pytest.raises(ValidationError, match="cutoff must be an integer >= 1, got True"):
            expand_two_mode(number_vector(1), ModeSplit(0.5), True)

    def test_matches_dense_operator_polynomial(self):
        # apply the dense split ladder explicitly: sum_n c_n (a_q^dag)^n / sqrt(n!) |0,0>
        split = split_from_amplitude(0.8)
        cutoff = 5
        psi = random_fock_vectors(1, cutoff, seed=11)[0]
        adag = build_split_creation(split, cutoff)
        vec = np.zeros((cutoff + 1) ** 2, dtype=complex)
        vec[0] = 1.0
        acc = np.zeros_like(vec)
        rung = vec.copy()
        acc += psi.coeffs[0] * rung
        for n in range(1, cutoff + 1):
            rung = adag @ rung / math.sqrt(n)
            acc += psi.coeffs[n] * rung
        fast = expand_two_mode(psi, split, cutoff)
        assert np.max(np.abs(fast.coeffs.ravel() - acc)) <= 1e-12

    @pytest.mark.parametrize("q0sq", [0.0, 1e-6, 0.3, 0.5, 1.0 - 1e-6, 1.0])
    def test_stack_and_single_match_dense_ladder(self, q0sq):
        # supports 1..9 on one basis: all nine states, the last three, and each state alone
        split = ModeSplit(q0sq)
        cutoff = 8
        states = [random_fock_vectors(1, support, seed=support)[0] for support in range(9)]
        expected = [dense_ladder_expansion(psi, split, cutoff) for psi in states]
        for first in (0, 6):
            stacked = expand_two_mode(states[first:], split, cutoff)
            marginals = partial_trace_numeric(stacked)
            for k, grid in enumerate(expected[first:]):
                assert np.max(np.abs(stacked.coeffs[k] - grid)) <= 1e-13
                assert np.max(np.abs(marginals[k] - literal_marginal(grid))) <= 1e-13
        for psi, grid in zip(states, expected):
            alone = expand_two_mode(psi, split, cutoff)
            assert np.max(np.abs(alone.coeffs - grid)) <= 1e-13
            rho = partial_trace_numeric(alone).elems
            assert np.max(np.abs(rho - literal_marginal(grid))) <= 1e-13

    def test_single_state_holds_one_rung_at_a_time(self):
        # a buffer of every rung would be 257 times the output at this support
        psi = random_fock_vectors(1, 256, seed=3)[0]
        split = ModeSplit(0.4)
        tracemalloc.start()
        try:
            two = expand_two_mode(psi, split, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # about 2.5x: the output, the grid of all rungs and its n0 + n1 index grid
        assert peak <= 3.5 * two.coeffs.nbytes

    def test_stack_holds_no_product_temporary(self):
        # the number basis and 100 random states, as oracle_check expands them
        max_n = 100
        states = [number_vector(n) for n in range(max_n + 1)]
        states += random_fock_vectors(100, max_n, seed=5)
        tracemalloc.start()
        try:
            two = expand_two_mode(states, ModeSplit(0.4), max_n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output plus the padded amplitudes, one rung grid and its index grid
        assert peak <= 1.25 * two.coeffs.nbytes


class TestPartialTraceNumeric:
    def test_product_state_is_pure(self):
        coeffs = np.zeros((3, 3), dtype=complex)
        coeffs[1, 0] = 1.0
        rho = partial_trace_numeric(TwoModeVector(coeffs)).elems
        expected = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert np.array_equal(rho, expected)

    def test_maximally_entangled_pair(self):
        coeffs = np.zeros((2, 2), dtype=complex)
        coeffs[0, 0] = coeffs[1, 1] = 1.0 / math.sqrt(2.0)
        rho = partial_trace_numeric(TwoModeVector(coeffs)).elems
        assert np.allclose(rho, np.diag([0.5, 0.5]), rtol=0.0, atol=1e-15)

    def test_two_photons_half_split(self):
        two = expand_two_mode(number_vector(2), ModeSplit(0.5), 2)
        rho = partial_trace_numeric(two).elems
        assert np.allclose(np.diag(rho), [0.25, 0.5, 0.25], rtol=0.0, atol=1e-15)

    def test_keep_other_mode_swaps_split(self):
        psi = random_fock_vectors(1, 4, seed=3)[0]
        split = split_from_amplitude(0.7)
        swapped = ModeSplit(split.q1sq)
        two = expand_two_mode(psi, split, 4)
        # the transposed grid holds the modes in the other order
        kept_second = partial_trace_numeric(TwoModeVector(two.coeffs.swapaxes(-2, -1))).elems
        direct = partial_trace_numeric(expand_two_mode(psi, swapped, 4)).elems
        assert np.max(np.abs(kept_second - direct)) <= 1e-12

    def test_shape_validation(self):
        # only a TwoModeVector is traced; a raw array of any shape is rejected
        for raw in (np.zeros((6, 6)), np.zeros((4, 9)), np.eye(4) / 2.0):
            with pytest.raises(ValidationError):
                partial_trace_numeric(raw)


class TestCompareStates:
    def test_identical_states(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        result = compare_states(rho, rho)
        assert result.max_abs_diff == 0.0
        assert result.trace_distance == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        result = compare_states(a, b)
        assert result.trace_distance == pytest.approx(1.0, abs=1e-15)
        assert result.fidelity_if_pure == pytest.approx(0.0, abs=1e-15)

    def test_classical_distance(self):
        a = np.diag([0.6, 0.4]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        result = compare_states(a, b)
        assert result.trace_distance == pytest.approx(0.1, abs=1e-15)
        assert result.fidelity_if_pure is None

    def test_dimension_padding(self):
        a = np.array([[1.0]], dtype=complex)
        b = np.diag([1.0, 0.0]).astype(complex)
        result = compare_states(a, b)
        assert result.max_abs_diff == 0.0

    def test_pure_reference_fidelity(self):
        psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        pure = np.outer(psi, psi.conj())
        mixed = np.diag([0.5, 0.5]).astype(complex)
        result = compare_states(pure, mixed)
        assert result.fidelity_if_pure == pytest.approx(0.5, abs=1e-15)


class TestOracleAgreement:
    @pytest.mark.parametrize("n", range(9))
    def test_number_states_match_closed_form(self, n):
        for q0sq in np.linspace(0.0, 1.0, 11):
            split = ModeSplit(q0sq)
            numeric = partial_trace_numeric(
                expand_two_mode(number_vector(n), split, max(n, 1))
            ).elems
            closed = reduce_number_state(n, split).elems
            side = max(numeric.shape[0], closed.shape[0])
            padded = np.zeros((side, side), dtype=complex)
            padded[: numeric.shape[0], : numeric.shape[0]] = numeric
            target = np.zeros((side, side), dtype=complex)
            target[: closed.shape[0], : closed.shape[0]] = closed
            assert np.max(np.abs(padded - target)) <= 1e-10

    def test_random_states_match_series(self):
        splits = [ModeSplit(s) for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
        worst = 0.0
        for psi in random_fock_vectors(100, 8, seed=42):
            cutoff = psi.dim - 1
            for split in splits:
                numeric = partial_trace_numeric(
                    expand_two_mode(psi, split, max(cutoff, 1))
                ).elems
                series = reduce_pure_general(psi, split).rho0.elems
                worst = max(worst, float(np.max(np.abs(numeric - series))))
        assert worst <= 1e-10

    def test_marginal_symmetric_under_swap(self):
        # tracing the kept mode of (q0, q1) equals tracing the other mode of (q1, q0),
        # which is the region marginal of the transposed grid
        psi = random_fock_vectors(1, 6, seed=9)[0]
        split = split_from_amplitude(0.35)
        a = partial_trace_numeric(expand_two_mode(psi, split, 6)).elems
        other = expand_two_mode(psi, ModeSplit(split.q1sq), 6)
        b = partial_trace_numeric(TwoModeVector(other.coeffs.swapaxes(-2, -1))).elems
        assert np.max(np.abs(a - b)) <= 1e-12


class TestRandomFockVectors:
    def test_deterministic_for_fixed_seed(self):
        a = random_fock_vectors(3, 5, seed=0)
        b = random_fock_vectors(3, 5, seed=0)
        for x, y in zip(a, b):
            assert np.array_equal(x.coeffs, y.coeffs)

    @pytest.mark.parametrize(
        "count, max_support, seed", [(1, 0, 0), (3, 5, 1), (100, 12, 5), (7, 40, 123)]
    )
    def test_one_draw_matches_per_state_draws(self, count, max_support, seed):
        drawn = random_fock_vectors(count, max_support, seed)
        reference = per_state_random_vectors(count, max_support, seed)
        assert len(drawn) == count
        for a, b in zip(drawn, reference):
            assert np.array_equal(a.coeffs.view(np.uint64), b.coeffs.view(np.uint64))

    def test_each_is_normalized(self):
        for psi in random_fock_vectors(10, 8, seed=1):
            assert np.linalg.norm(psi.coeffs) == pytest.approx(1.0, abs=1e-10)

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            random_fock_vectors(0, 5, seed=0)
        with pytest.raises(ValidationError):
            random_fock_vectors(3, -1, seed=0)
        for seed in (-1, 1.5):
            with pytest.raises(ValidationError, match="seed"):
                random_fock_vectors(3, 2, seed)
        with pytest.raises(ValidationError, match="count must be an integer >= 1, got 2.5"):
            random_fock_vectors(2.5, 3, 0)
        with pytest.raises(ValidationError, match="max_support"):
            random_fock_vectors(3, True, 0)
