"""Purity, parameter sweeps, and closed-form cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cat_vector, pad_matrix
import probeview.analysis
from probeview import (
    ModeSplit,
    ValidationError,
    cat_purity,
    oracle_check,
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
    def test_endpoints_are_exactly_pure(self):
        result = purity_sweep(range(1, 6), np.linspace(0.0, 1.0, 21))
        assert result.shape == (5 * 21, 3) and result.dtype == np.float64
        for row in result:
            if row[1] in (0.0, 1.0):
                assert row[2] == 1.0

    def test_minimum_at_balanced_split(self):
        grid = np.linspace(0.0, 1.0, 21)
        result = purity_sweep([3], grid)
        assert grid[int(np.argmin(result[:, 2]))] == 0.5

    def test_frozen_minimum_values(self):
        result = purity_sweep(range(1, 6), [0.5])
        expected = {1: 0.5, 2: 0.375, 3: 0.3125, 4: 0.2734375, 5: 0.24609375}
        for row in result:
            assert row[2] == pytest.approx(expected[int(row[0])], abs=1e-12)

    def test_symmetric_about_half(self):
        grid = np.linspace(0.0, 1.0, 21)
        values = purity_sweep([2], grid)[:, 2]
        for k in range(len(grid)):
            assert values[k] == pytest.approx(values[len(grid) - 1 - k], abs=1e-12)

    def test_equals_purity_of_reduced_matrix_bitwise(self):
        # the sweep builds no density matrix; its sum runs over the same layout as purity's
        grid = np.linspace(0.0, 1.0, 21)
        result = purity_sweep(range(41), grid)
        expected = [
            purity(reduce_number_state(n, ModeSplit(q0sq))) for n in range(41) for q0sq in grid
        ]
        assert result[:, 2].tolist() == expected

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
        assert result[:, :2].tolist() == [[1.0, 0.1], [1.0, 0.5], [2.0, 0.1], [2.0, 0.5]]

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="n_values is empty"):
            purity_sweep([], [0.5])
        with pytest.raises(ValidationError):
            purity_sweep([-1], [0.5])
        with pytest.raises(ValidationError, match=r"q0sq must lie in \[0, 1\], got 1.5"):
            purity_sweep([1], [1.5])
        with pytest.raises(ValidationError, match="q0sq_grid is empty"):
            purity_sweep([1], [])
        # reduce_number_state refuses these occupations too; int() would truncate 2.7 to 2, and
        # Python counts True as 1
        for n in (2.7, "4", True):
            with pytest.raises(ValidationError, match="n_values"):
                purity_sweep([n], [0.5])


class TestThermalSweep:
    def test_full_overlap_is_identity(self):
        # beta'E = betaE at q0sq = 1, so the reduced temperature is the given one, bit for bit
        result = thermal_sweep([1.0], inv_betaE=[2.0, 1.0, 0.5, 1 / 0.9, 49.0])
        assert result[:, 2].tolist() == result[:, 0].tolist()

    def test_frozen_ln3(self):
        result = thermal_sweep([0.5], inv_betaE=[1.0 / math.log(2.0)])
        assert result[0, 2] == pytest.approx(1.0 / math.log(3.0), abs=1e-12)
        assert result[0, 2] == pytest.approx(0.910239226626837428, abs=1e-12)

    def test_frozen_cold_point(self):
        result = thermal_sweep([0.5], inv_betaE=[1.0 / 5.0])
        assert result[0, 2] == pytest.approx(0.175753950902173606, abs=1e-12)

    def test_reduced_always_colder(self):
        result = thermal_sweep([0.25, 0.5, 0.75], inv_betaE=np.arange(0.1, 10.05, 0.1))
        for row in result:
            assert row[2] <= row[0] * (1.0 + 1e-12)

    def test_monotone_in_input_temperature(self):
        outputs = thermal_sweep([0.5], inv_betaE=[2.0, 1.0, 0.5, 0.25])[:, 2].tolist()
        assert outputs == sorted(outputs)

    def test_monotone_in_overlap(self):
        outputs = thermal_sweep([0.2, 0.4, 0.6, 0.8, 1.0], inv_betaE=[1.0])[:, 2].tolist()
        assert outputs == sorted(outputs)

    def test_ordered_ascending_by_temperature(self):
        result = thermal_sweep([0.5, 1.0], inv_betaE=[2.0, 0.5, 1.0])
        assert result[:, :2].tolist() == [
            [0.5, 0.5], [0.5, 1.0], [1.0, 0.5], [1.0, 1.0], [2.0, 0.5], [2.0, 1.0]
        ]

    def test_zero_overlap_is_vacuum(self):
        result = thermal_sweep([0.0, 1e-300, 0.5], inv_betaE=[2.0, 0.5])
        zero_rows = result[result[:, 1] == 0.0]
        assert zero_rows[:, 0].tolist() == [0.5, 2.0]
        assert all(zero_rows[:, 2] == 0.0)
        # the q0sq -> 0 limit: 1/beta'E ~ 1/ln(1/q0sq) falls towards 0
        tiny_rows = result[result[:, 1] == 1e-300]
        assert all((0.0 < tiny_rows[:, 2]) & (tiny_rows[:, 2] < 2e-3))

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            thermal_sweep([-0.1], inv_betaE=[1.0])
        with pytest.raises(ValidationError):
            thermal_sweep([0.5], inv_betaE=[-1.0])
        with pytest.raises(ValidationError, match="inv_betaE is empty"):
            thermal_sweep([0.5], inv_betaE=[])
        with pytest.raises(ValidationError, match="q0sq_values is empty"):
            thermal_sweep([], inv_betaE=[1.0])
        with pytest.raises(ValidationError):
            thermal_sweep([1.2], inv_betaE=[1.0])
        # betaE = 1/value must be positive and finite too
        for value in (math.inf, math.nan, 1e-310):
            with pytest.raises(ValidationError, match="inv_betaE"):
                thermal_sweep([0.5], inv_betaE=[value])
        # a positional grid once meant betaE; it must not be read silently as 1/betaE
        with pytest.raises(TypeError):
            thermal_sweep([0.5], [2.0])


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


class TestOracleCheck:
    def test_empty_grid_is_refused(self):
        # zero cases and max_abs_diff 0.0 would read as agreement
        with pytest.raises(ValidationError, match="q0sq_grid"):
            oracle_check(2, 0, [])

    @pytest.mark.parametrize("max_n", [0, -1, 1.5, True])
    def test_invalid_max_n_names_max_n(self, max_n):
        with pytest.raises(ValidationError, match="max_n"):
            oracle_check(max_n, 0, [0.5])

    def test_negative_seed_names_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            oracle_check(2, -1, [0.5])

    def test_bad_last_grid_value_is_refused_before_any_expansion(self, monkeypatch):
        def expand(*args):
            raise AssertionError("expand_two_mode ran before the grid was checked")

        monkeypatch.setattr(probeview.analysis, "expand_two_mode", expand)
        with pytest.raises(ValidationError, match=r"q0sq must lie in \[0, 1\], got 1.5"):
            oracle_check(3, 0, [0.5, 1.5])
