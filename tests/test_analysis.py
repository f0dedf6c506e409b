"""Purity, parameter sweeps, and closed-form cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cat_vector, pad_matrix
from probeview import (
    ModeSplit,
    SweepResult,
    ValidationError,
    cat_purity,
    purity,
    purity_sweep,
    reduce_number_state,
    thermal_sweep,
)


class TestPurity:
    def test_pure_state_is_one(self):
        psi = np.array([0.6, 0.8j])
        assert purity(np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_qubit(self):
        assert purity(np.diag([0.5, 0.5]).astype(complex)) == 0.5

    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0.5), (2, 0.375), (3, 0.3125), (4, 0.2734375), (5, 0.24609375)],
    )
    def test_reduced_number_state_central_value(self, n, expected):
        # C(2n, n) / 4^n exactly, at the balanced split
        rho = reduce_number_state(n, ModeSplit(0.5))
        assert purity(rho) == pytest.approx(expected, abs=1e-12)

    def test_padding_invariant(self):
        rho = reduce_number_state(2, ModeSplit(0.3))
        assert purity(pad_matrix(rho.elems, 9)) == pytest.approx(purity(rho), abs=1e-15)

    def test_rejects_invalid_matrix(self):
        with pytest.raises(ValidationError):
            purity(np.diag([0.9, 0.9]).astype(complex))
        with pytest.raises(ValidationError):
            purity(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


class TestPuritySweep:
    def test_schema(self):
        result = purity_sweep([1], [0.0, 1.0])
        assert result.schema == ("n", "q0sq", "purity")

    def test_endpoints_are_exactly_pure(self):
        result = purity_sweep(range(1, 6), np.linspace(0.0, 1.0, 21))
        for row in result.rows:
            if row[1] in (0.0, 1.0):
                assert row[2] == 1.0

    def test_minimum_at_balanced_split(self):
        grid = np.linspace(0.0, 1.0, 21)
        result = purity_sweep([3], grid)
        values = [row[2] for row in result.rows]
        assert grid[int(np.argmin(values))] == 0.5

    def test_frozen_minimum_values(self):
        result = purity_sweep(range(1, 6), [0.5])
        expected = {1: 0.5, 2: 0.375, 3: 0.3125, 4: 0.2734375, 5: 0.24609375}
        for row in result.rows:
            assert row[2] == pytest.approx(expected[int(row[0])], abs=1e-12)

    def test_symmetric_about_half(self):
        grid = np.linspace(0.0, 1.0, 21)
        result = purity_sweep([2], grid)
        values = [row[2] for row in result.rows]
        for k in range(len(grid)):
            assert values[k] == pytest.approx(values[len(grid) - 1 - k], abs=1e-12)

    def test_equals_purity_of_reduced_matrix_bitwise(self):
        # the sweep builds no density matrix; its sum runs over the same layout as purity's
        grid = np.linspace(0.0, 1.0, 21)
        result = purity_sweep(range(41), grid)
        expected = [
            purity(reduce_number_state(n, ModeSplit(q0sq))) for n in range(41) for q0sq in grid
        ]
        assert [row[2] for row in result.rows] == expected

    def test_memory_does_not_grow_by_a_table_per_grid_point(self):
        # n = 255 has a table row of 256 floats, 2 KB, per q0sq; each is dropped before the
        # next, so 50 more grid points may add their rows but not 50 tables
        def peak(points):
            grid = np.linspace(0.0, 1.0, points)
            tracemalloc.start()
            try:
                purity_sweep([255], grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(60) - peak(10) < 50 * 1024

    def test_rows_ordered_and_deduplicated(self):
        result = purity_sweep([2, 1, 2], [0.5, 0.1, 0.5])
        params = [(row[0], row[1]) for row in result.rows]
        assert params == [(1.0, 0.1), (1.0, 0.5), (2.0, 0.1), (2.0, 0.5)]

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            purity_sweep([], [0.5])
        with pytest.raises(ValidationError):
            purity_sweep([-1], [0.5])
        with pytest.raises(ValidationError):
            purity_sweep([1], [1.5])


class TestThermalSweep:
    def test_schema(self):
        result = thermal_sweep([1.0], [1.0])
        assert result.schema == ("inv_betaE", "q0sq", "inv_beta_primeE")

    def test_full_overlap_is_identity(self):
        result = thermal_sweep([1.0], [0.5, 1.0, 2.0])
        for row in result.rows:
            assert row[2] == pytest.approx(row[0], rel=1e-15)

    def test_frozen_ln3(self):
        result = thermal_sweep([0.5], [math.log(2.0)])
        assert result.rows[0][2] == pytest.approx(1.0 / math.log(3.0), abs=1e-12)
        assert result.rows[0][2] == pytest.approx(0.910239226626837428, abs=1e-12)

    def test_frozen_cold_point(self):
        result = thermal_sweep([0.5], [5.0])
        assert result.rows[0][2] == pytest.approx(0.175753950902173606, abs=1e-12)

    def test_reduced_always_colder(self):
        result = thermal_sweep([0.25, 0.5, 0.75], np.arange(0.1, 10.05, 0.1) ** -1)
        for row in result.rows:
            assert row[2] <= row[0] * (1.0 + 1e-12)

    def test_monotone_in_input_temperature(self):
        result = thermal_sweep([0.5], [0.5, 1.0, 2.0, 4.0])
        outputs = [row[2] for row in result.rows]
        assert outputs == sorted(outputs)

    def test_monotone_in_overlap(self):
        result = thermal_sweep([0.2, 0.4, 0.6, 0.8, 1.0], [1.0])
        outputs = [row[2] for row in result.rows]
        assert outputs == sorted(outputs)

    def test_ordered_ascending_by_temperature(self):
        result = thermal_sweep([0.5, 1.0], [0.5, 2.0, 1.0])
        firsts = [row[0] for row in result.rows]
        assert firsts == sorted(firsts)
        assert firsts[0] == 0.5  # 1/betaE for betaE = 2

    def test_zero_overlap_is_vacuum(self):
        result = thermal_sweep([0.0, 1e-300, 0.5], [0.5, 2.0])
        zero_rows = [row for row in result.rows if row[1] == 0.0]
        assert [row[0] for row in zero_rows] == [0.5, 2.0]
        assert all(row[2] == 0.0 for row in zero_rows)
        # the q0sq -> 0 limit: 1/beta'E ~ 1/ln(1/q0sq) falls towards 0
        tiny_rows = [row for row in result.rows if row[1] == 1e-300]
        assert all(0.0 < row[2] < 2e-3 for row in tiny_rows)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            thermal_sweep([-0.1], [1.0])
        with pytest.raises(ValidationError):
            thermal_sweep([0.5], [-1.0])
        with pytest.raises(ValidationError):
            thermal_sweep([0.5], [])
        with pytest.raises(ValidationError):
            thermal_sweep([1.2], [1.0])


class TestCatPurity:
    def test_endpoints(self):
        assert cat_purity(0.0) == 1.0
        assert cat_purity(1.0) == 1.0

    def test_balanced_split(self):
        assert cat_purity(0.5) == pytest.approx(0.875, abs=1e-12)

    @pytest.mark.parametrize("q0sq", [0.3, 0.7])
    def test_mirror_points(self, q0sq):
        # (2 - q + q^2)/2 at q in {0.3, 0.7} both give 0.895
        assert cat_purity(q0sq) == pytest.approx(0.895, abs=1e-12)

    def test_grid_runs_clean(self):
        for q0sq in np.linspace(0.0, 1.0, 21):
            value = cat_purity(q0sq)
            assert 0.875 <= value <= 1.0

    def test_range_error(self):
        with pytest.raises(ValidationError):
            cat_purity(-0.1)
        with pytest.raises(ValidationError):
            cat_purity(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_matches_series_purity(self, q0sq):
        from probeview import reduce_pure_general

        numeric = purity(reduce_pure_general(cat_vector(), ModeSplit(q0sq)).rho0)
        assert cat_purity(q0sq) == pytest.approx(numeric, abs=1e-10)


class TestSweepResult:
    def test_accepts_well_formed(self):
        result = SweepResult(((0.0, 1.0), (1.0, 2.0)), ("x", "y"))
        assert result.rows == ((0.0, 1.0), (1.0, 2.0))

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            SweepResult(((1.0, 0.0), (0.0, 0.0)), ("x", "y"))

    def test_rejects_duplicate_parameters(self):
        with pytest.raises(ValidationError):
            SweepResult(((0.0, 1.0, 5.0), (0.0, 1.0, 6.0)), ("a", "b", "y"))

    def test_rejects_short_schema(self):
        with pytest.raises(ValidationError):
            SweepResult(((1.0,),), ("y",))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValidationError):
            SweepResult(((0.0, 1.0), (1.0,)), ("x", "y"))
