"""Core state types, materialization, and profile ingestion."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import number_vector
from probeview import (
    Coherent,
    DensityMatrix,
    FockVector,
    Mixture,
    ModeSplit,
    Number,
    Thermal,
    TruncationError,
    TruncationPolicy,
    ValidationError,
    Violation,
    materialize,
    expand_two_mode,
    number_expectation,
    overlap_from_profile,
    partial_trace_numeric,
    random_fock_vectors,
    reduce_number_state,
    reduce_pure_general,
    reduce_pure_states,
    reduce_state,
    validate_density_matrix,
)
from probeview.cli import _family_from_descriptor, main
from probeview.fock import PSD_TOL, _gram_psd_bound, _violations


class TestModeSplit:
    def test_valid_pair(self):
        split = ModeSplit(0.36)
        assert split.q0 == 0.6
        assert split.q1 == 0.8

    def test_from_q0sq_keeps_probability_exact(self):
        split = ModeSplit.from_q0sq(0.3)
        assert split.q0sq == 0.3
        assert split.q1sq == 0.7
        assert math.isclose(split.q0**2, 0.3, rel_tol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ModeSplit(-0.36)

    def test_has_one_field(self):
        assert [field.name for field in dataclasses.fields(ModeSplit)] == ["q0sq"]

    @pytest.mark.parametrize("q0sq", [-0.1, 1.1, float("nan")])
    def test_from_q0sq_rejects_out_of_range(self, q0sq):
        with pytest.raises(ValidationError):
            ModeSplit.from_q0sq(q0sq)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_from_q0sq_normalized(self, q0sq):
        split = ModeSplit.from_q0sq(q0sq)
        assert abs(split.q0**2 + split.q1**2 - 1.0) <= 1e-12
        assert split.q0sq == q0sq
        # the amplitudes are derived from q0sq alone
        assert split == ModeSplit(q0sq)
        assert (split.q0, split.q1sq) == (math.sqrt(q0sq), 1.0 - q0sq)
        assert split.q1 == math.sqrt(1.0 - q0sq)


class TestFockVector:
    def test_accepts_normalized(self):
        psi = FockVector(np.array([1.0, 1.0, 1.0, 1.0]) / 2.0)
        assert psi.dim == 4
        assert np.allclose(psi.probabilities(), 0.25)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            FockVector(np.array([1.0, 1.0]))

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ValidationError):
            FockVector(np.array([]))
        with pytest.raises(ValidationError):
            FockVector(np.eye(2))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            FockVector(np.array([float("nan"), 1.0]))

    def test_overflowing_norm_is_a_validation_error(self):
        # sum |psi_n|^2 overflows to inf, which fails the normalization check without a warning
        with pytest.raises(ValidationError, match="not normalized"):
            FockVector(np.array([1e308, 1e308]))

    def test_coefficients_immutable(self):
        psi = number_vector(2)
        with pytest.raises(ValueError):
            psi.coeffs[0] = 1.0


class TestValidateDensityMatrix:
    def test_projector_is_clean(self):
        assert validate_density_matrix(np.diag([1.0, 0.0]).astype(complex)) == []

    def test_trace_violation_magnitude(self):
        violations = validate_density_matrix(np.diag([0.6, 0.6]).astype(complex))
        assert [v.kind for v in violations] == ["trace"]
        assert violations[0].magnitude == pytest.approx(0.2, abs=1e-15)

    def test_psd_violation_magnitude(self):
        # eigenvalues of [[0.5, 0.9], [0.9, 0.5]] are 1.4 and -0.4
        violations = validate_density_matrix(np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex))
        assert [v.kind for v in violations] == ["positive_semidefinite"]
        assert violations[0].magnitude == pytest.approx(-0.4, abs=1e-12)

    def test_hermitian_violation(self):
        violations = validate_density_matrix(np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex))
        assert "hermitian" in [v.kind for v in violations]

    def test_non_square_flagged(self):
        violations = validate_density_matrix(np.zeros((2, 3), dtype=complex))
        assert [v.kind for v in violations] == ["shape"]


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


def _with_defect(rho: np.ndarray, defect, size: float) -> np.ndarray:
    """A copy of rho with one broken invariant of roughly the given size."""
    out = rho.copy()
    if defect == "trace":
        out *= 1.0 + size
    elif defect == "hermitian":
        out[0, 1] += size
    elif defect == "psd":
        out[0, 0] += 1.0 + size
        out[1, 1] -= 1.0 + size
    return out


def _by_kind(violations) -> dict:
    return {v.kind: v.magnitude for v in violations}


_DEFECTS = st.sampled_from([None, "trace", "hermitian", "psd"])
_DEFECT_SIZES = st.floats(min_value=1e-9, max_value=0.5)


class TestValidateStack:
    @given(
        st.integers(min_value=2, max_value=16),
        st.lists(st.tuples(_DEFECTS, _DEFECT_SIZES), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_reports_the_worst_matrix_of_each_kind(self, dim, defects, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([_with_defect(_random_density(rng, dim), d, size) for d, size in defects])
        expected: dict = {}
        for rho in stack:
            for kind, magnitude in _by_kind(validate_density_matrix(rho)).items():
                worse = min if kind == "positive_semidefinite" else max
                expected[kind] = worse(expected.get(kind, magnitude), magnitude)
        assert _by_kind(validate_density_matrix(stack)) == expected

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_one_bad_matrix_is_flagged_with_its_magnitude(self, dim, count, data):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31 - 1)))
        stack = np.stack([_random_density(rng, dim) for _ in range(count)])
        assume(validate_density_matrix(stack) == [])
        bad = data.draw(st.integers(min_value=0, max_value=count - 1))
        defect = data.draw(st.sampled_from(["trace", "hermitian", "psd"]))
        stack[bad] = _with_defect(stack[bad], defect, data.draw(_DEFECT_SIZES))
        alone = validate_density_matrix(stack[bad])
        assert defect in [v.kind if v.kind != "positive_semidefinite" else "psd" for v in alone]
        assert validate_density_matrix(stack) == alone

    def test_nonfinite_and_misshaped_stacks(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2.0] * 3)
        assert validate_density_matrix(stack) == []
        stack[2, 1, 0] = np.nan
        assert [v.kind for v in validate_density_matrix(stack)] == ["finite"]
        assert [v.kind for v in validate_density_matrix(np.zeros((2, 2, 3)))] == ["shape"]
        assert [v.kind for v in validate_density_matrix(np.zeros((1, 2, 2, 2)))] == ["shape"]

    def test_density_matrix_rejects_a_stack(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.stack([np.eye(2, dtype=complex) / 2.0] * 2))


def _lowest_eigenvalue(rho: np.ndarray) -> float:
    """Lowest eigenvalue of the Hermitian part over a matrix or a stack, by eigvalsh."""
    hermitian_part = (rho + rho.conj().swapaxes(-2, -1)) / 2.0
    return float(np.min(np.linalg.eigvalsh(hermitian_part)[..., 0]))


def _eigvalsh_psd(rho: np.ndarray):
    """The PSD verdict by plain diagonalization: the worst eigenvalue, or None if clean."""
    min_eig = _lowest_eigenvalue(rho)
    return min_eig if min_eig < -PSD_TOL else None


def _with_spectrum(rng: np.random.Generator, eigenvalues, diagonal: bool) -> np.ndarray:
    """A Hermitian matrix with the given eigenvalues, rotated unless diagonal."""
    if diagonal:
        return np.diag(np.asarray(eigenvalues, dtype=complex))
    dim = len(eigenvalues)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, _ = np.linalg.qr(raw)
    return (unitary * np.asarray(eigenvalues)) @ unitary.conj().T


class TestPsdGate:
    """The Cholesky certificate gives eigvalsh's verdict and magnitude."""

    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
        st.floats(min_value=-3e-10, max_value=3e-10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_agrees_with_eigvalsh(self, dim, count, diagonal, offset, seed):
        rng = np.random.default_rng(seed)

        def one() -> np.ndarray:
            eigenvalues = rng.uniform(0.0, 1.0, dim)
            eigenvalues[rng.integers(dim)] = -PSD_TOL + offset * rng.uniform(0.0, 2.0)
            return _with_spectrum(rng, eigenvalues, diagonal)

        rho = np.stack([one() for _ in range(count)]) if count else one()
        assume(abs(_lowest_eigenvalue(rho) + PSD_TOL) > 1e-13)
        expected = _eigvalsh_psd(rho)
        assert _by_kind(validate_density_matrix(rho)).get("positive_semidefinite") == expected

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("side", [1e-12, -1e-12])
    def test_just_inside_and_outside_the_boundary(self, diagonal, side):
        rng = np.random.default_rng(3)
        eigenvalues = [-PSD_TOL + side, 0.2, 0.3, 0.5 + PSD_TOL - side]
        rho = _with_spectrum(rng, eigenvalues, diagonal)
        violations = _by_kind(validate_density_matrix(rho))
        if side > 0:
            assert "positive_semidefinite" not in violations
        else:
            assert violations["positive_semidefinite"] == _eigvalsh_psd(rho)
            assert violations["positive_semidefinite"] == pytest.approx(-PSD_TOL - 1e-12, abs=1e-15)

    def test_rank_deficient_states_pass(self):
        number = reduce_number_state(5, ModeSplit(1.0))
        number_kernel = reduce_pure_general(number_vector(5), ModeSplit(1.0)).rho0
        policy = TruncationPolicy(128, tail_tol=1e-10)
        coherent = reduce_state(Coherent(complex(3.0, 1.5)), ModeSplit(0.5), policy)
        rng = np.random.default_rng(11)
        raw = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        psi = FockVector(raw / np.linalg.norm(raw))
        kernel = reduce_pure_general(psi, ModeSplit(1e-6)).rho0
        for rho in (number, number_kernel, coherent, kernel):
            assert validate_density_matrix(rho.elems) == []

    def test_diagonal_with_one_negative_entry(self):
        rho = np.diag([0.7, 0.45, -0.15]).astype(complex)
        assert validate_density_matrix(rho) == [Violation("positive_semidefinite", -0.15)]

    def test_non_hermitian_with_diagonal_hermitian_part(self):
        # the off-diagonal pair is anti-Hermitian, so the Hermitian part is diag(1.2, -0.2)
        rho = np.array([[1.2, 0.3], [-0.3, -0.2]], dtype=complex)
        assert _by_kind(validate_density_matrix(rho)) == {
            "hermitian": 0.6,
            "positive_semidefinite": -0.2,
        }
        # imaginary diagonal parts cancel in the Hermitian part diag(0.6, 0.4)
        rho = np.array([[0.6 + 0.1j, 0.3], [-0.3, 0.4 - 0.1j]])
        assert _by_kind(validate_density_matrix(rho)) == {"hermitian": 0.6}

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_one_bad_matrix_in_a_valid_stack(self, diagonal):
        rng = np.random.default_rng(5)
        spectra = [rng.dirichlet(np.ones(6)) for _ in range(5)]
        stack = np.stack([_with_spectrum(rng, w, diagonal) for w in spectra])
        assert validate_density_matrix(stack) == []
        bad = spectra[3].copy()
        bad[2] += bad[4] + 0.04
        bad[4] = -0.04  # trace still 1
        stack[3] = _with_spectrum(rng, bad, diagonal)
        violations = validate_density_matrix(stack)
        assert violations == validate_density_matrix(stack[3])
        assert _by_kind(violations) == {"positive_semidefinite": _eigvalsh_psd(stack[3])}

    def test_valid_input_is_not_diagonalized(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(np.linalg, name)

            def wrapper(a):
                calls.append(name)
                return real(a)

            monkeypatch.setattr(np.linalg, name, wrapper)

        spy("eigvalsh")
        spy("cholesky")
        rng = np.random.default_rng(9)
        stack = np.stack([_random_density(rng, 4) for _ in range(3)])
        assert validate_density_matrix(stack) == []
        assert calls == ["cholesky"]
        # slightly negative but within the gate: the PSD_TOL shift certifies it
        stack[0] = _with_spectrum(rng, [-PSD_TOL / 2.0, 0.25, 0.25, 0.5 + PSD_TOL / 2.0], False)
        assert validate_density_matrix(stack) == []
        assert calls == ["cholesky"] * 2
        stack[1] = _with_defect(stack[1], "psd", 0.1)
        assert [v.kind for v in validate_density_matrix(stack)] == ["positive_semidefinite"]
        assert calls == ["cholesky"] * 3 + ["eigvalsh"]


_CERTIFICATE_Q0SQ = [0.0, 1e-300, 1e-6, 0.5, 1.0 - 1e-6, 1.0]


def _gram_stacks(support: int, q0sq: float):
    """The kernel and oracle stacks of three random states of the given support."""
    states = random_fock_vectors(3, support - 1, seed=support)
    split = ModeSplit(q0sq)
    numeric = partial_trace_numeric(expand_two_mode(states, split, max(support - 1, 1)))
    return reduce_pure_states(states, split), numeric


def _recording(monkeypatch, name: str) -> list:
    """Replace np.linalg.<name> by a wrapper that records the shape of each argument."""
    shapes = []
    real = getattr(np.linalg, name)

    def wrapper(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, name, wrapper)
    return shapes


class TestGramCertificate:
    """A Gram product's PSD gate is decided by its rounding bound, with Cholesky as fallback."""

    @pytest.mark.parametrize("q0sq", _CERTIFICATE_Q0SQ)
    @pytest.mark.parametrize("support", [1, 2, 13, 64, 133])
    def test_full_gate_passes_both_stacks(self, q0sq, support):
        for stack in _gram_stacks(support, q0sq):
            assert validate_density_matrix(stack) == []
            assert _violations(stack, gram_inner=support) == []
            # the bound holds for every matrix, whatever its spectrum
            assert _lowest_eigenvalue(stack) >= -_gram_psd_bound(support, support, 1.0 + 1e-10)

    @pytest.mark.parametrize("q0sq", _CERTIFICATE_Q0SQ)
    def test_full_gate_passes_the_kernel_at_1024(self, q0sq):
        states = random_fock_vectors(1, 1024, seed=17)
        stack = reduce_pure_states(states, ModeSplit(q0sq))
        assert validate_density_matrix(stack) == []
        assert _violations(stack, gram_inner=1025) == []

    def test_bound_sizes(self):
        # about gamma_{K+2} per unit of ||G||_F^2, far inside PSD_TOL at every accepted size
        assert 2e-15 < _gram_psd_bound(13, 13, 1.0) < 3e-15
        assert _gram_psd_bound(1025, 1025, 1.0) < 2e-13
        assert _gram_psd_bound(2**52, 13, 1.0) == math.inf
        assert _gram_psd_bound(13, 2**54, 1.0) == math.inf

    def test_oracle_check_runs_no_cholesky_on_gram_stacks(self, monkeypatch, capsys):
        cholesky = _recording(monkeypatch, "cholesky")
        eigvalsh = _recording(monkeypatch, "eigvalsh")
        assert main(["oracle-check", "--max-n", "12"]) == 0
        capsys.readouterr()
        # one full gate per grid point, on the closed-form stack alone
        assert cholesky == [(13, 13, 13)] * 11
        assert eigvalsh == []

    def test_uncleared_bound_falls_back_to_the_full_gate(self, monkeypatch):
        cholesky = _recording(monkeypatch, "cholesky")
        kernel, numeric = _gram_stacks(13, 0.5)
        # still Gram products, but ||G||_F^2 = 1e6 makes the bound about 2.6e-9
        for stack in (kernel * 1e6, numeric * 1e6):
            assert _gram_psd_bound(13, 13, 1e6) > PSD_TOL
            before = len(cholesky)
            violations = _violations(stack, gram_inner=13)
            assert len(cholesky) == before + 1
            assert violations == validate_density_matrix(stack)
            assert [v.kind for v in violations] == ["trace"]
        # a non-PSD stack behind a bound that cannot clear gets the public verdict,
        # magnitude included
        broken = kernel.copy()
        broken[1] = np.diag([0.7, 0.45, -0.15] + [0.0] * 10)
        expected = validate_density_matrix(broken)
        assert [v.kind for v in expected] == ["positive_semidefinite"]
        before = len(cholesky)
        assert _violations(broken, gram_inner=2**52) == expected
        assert len(cholesky) == before + 1


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert rho.dim == 2
        assert np.allclose(rho.diagonal(), [0.5, 0.5])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_elements_immutable(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(ValueError):
            rho.elems[0, 0] = 1.0


class TestFamilyValidation:
    def test_number_rejects_negative(self):
        with pytest.raises(ValidationError):
            Number(-1)

    @pytest.mark.parametrize("beta_energy", [0.0, -1.0, math.nan])
    def test_thermal_rejects_invalid(self, beta_energy):
        with pytest.raises(ValidationError):
            Thermal(beta_energy)

    @pytest.mark.parametrize("beta_energy,energy", [(0.0, 1.0), (-1.0, -1.0), (1.0, 0.0)])
    def test_thermal_rejects_nonpositive(self, beta_energy, energy):
        # Thermal holds betaE alone; a descriptor's "energy" is still validated
        descriptor = {"family": "thermal", "betaE": beta_energy, "energy": energy}
        with pytest.raises(ValidationError):
            _family_from_descriptor(descriptor, TruncationPolicy(8))

    def test_mixture_rejects_bad_weights(self):
        states = (number_vector(0), number_vector(1))
        with pytest.raises(ValidationError):
            Mixture((0.5, 0.6), states)
        with pytest.raises(ValidationError):
            Mixture((1.5, -0.5), states)
        with pytest.raises(ValidationError):
            Mixture((1.0,), states)
        # their sum would overflow math.fsum, which raises OverflowError of its own
        with pytest.raises(ValidationError, match="mixture weights"):
            Mixture((1e308, 1e308), states)

    def test_mixture_keeps_weight_within_tolerance_of_one(self):
        mix = Mixture((1.0 + 5e-11,), (number_vector(0),))
        assert mix.weights == (1.0 + 5e-11,)

    @pytest.mark.parametrize("cutoff,tail_tol", [(0, 1e-12), (4, 0.0), (4, 1.0)])
    def test_truncation_policy_bounds(self, cutoff, tail_tol):
        with pytest.raises(ValidationError):
            TruncationPolicy(cutoff, tail_tol)


class TestMaterialize:
    def test_number_state_basis_vector(self):
        result = materialize(Number(3), TruncationPolicy(8))
        assert result.state.dim == 9
        expected = np.zeros(9)
        expected[3] = 1.0
        assert np.array_equal(result.state.coeffs, expected.astype(complex))
        assert result.discarded_mass == 0.0

    def test_vacuum_coherent(self):
        result = materialize(Coherent(0.0), TruncationPolicy(5))
        assert result.state.coeffs[0] == 1.0
        assert np.all(result.state.coeffs[1:] == 0.0)
        assert result.discarded_mass == 0.0

    def test_thermal_half_weights(self):
        # betaE = ln 2 gives normalization 1/2 and ratio 1/2 per rung
        result = materialize(Thermal(math.log(2.0)), TruncationPolicy(64))
        diag = result.state.diagonal()
        assert np.allclose(diag[:4], [0.5, 0.25, 0.125, 0.0625], rtol=0.0, atol=1e-12)
        assert result.discarded_mass == pytest.approx(0.5**65, rel=1e-12)

    @pytest.mark.parametrize("cutoff", [1, 8, 64])
    def test_zero_temperature_thermal_is_vacuum(self, cutoff):
        result = materialize(Thermal(math.inf), TruncationPolicy(cutoff))
        vacuum = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        vacuum[0, 0] = 1.0
        assert np.array_equal(result.state.elems, vacuum)
        assert result.discarded_mass == 0.0

    def test_number_above_cutoff_raises(self):
        with pytest.raises(TruncationError) as exc:
            materialize(Number(9), TruncationPolicy(8))
        assert exc.value.achieved_tail == 1.0

    def test_coherent_cutoff_too_small(self):
        with pytest.raises(TruncationError) as exc:
            materialize(Coherent(3.0), TruncationPolicy(9))
        assert 0.3 < exc.value.achieved_tail < 0.5

    @pytest.mark.parametrize("alpha", [1e200, 1e200j, -3e160 + 4e160j, 1.5e308 + 1.5e308j])
    def test_huge_coherent_amplitude_is_a_validation_error(self, alpha):
        # |alpha|^2, or |alpha| itself for the last case, overflows; it must still name the
        # amplitude, not raise OverflowError
        with pytest.raises(ValidationError, match="coherent amplitude too large"):
            materialize(Coherent(alpha), TruncationPolicy(10))

    def test_thermal_cutoff_too_small(self):
        with pytest.raises(TruncationError):
            materialize(Thermal(0.05), TruncationPolicy(16))

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 2.0 * np.exp(0.7j)])
    @pytest.mark.parametrize("cutoff", [16, 32])
    def test_coherent_discarded_mass_is_poisson_tail(self, alpha, cutoff):
        result = materialize(Coherent(alpha), TruncationPolicy(cutoff, tail_tol=0.5))
        with mpmath.workdps(50):
            lam = mpmath.mpf(abs(alpha)) ** 2
            tail = sum(
                mpmath.e ** (-lam) * lam**n / mpmath.factorial(n)
                for n in range(cutoff + 1, cutoff + 200)
            )
        assert abs(result.discarded_mass - float(tail)) <= 1e-12

    def test_coherent_amplitudes_match_series(self):
        alpha = 1.5 - 0.5j
        result = materialize(Coherent(alpha), TruncationPolicy(32))
        lam = abs(alpha) ** 2
        expected = [
            math.exp(-lam / 2.0) * alpha**n / math.sqrt(math.factorial(n)) for n in range(8)
        ]
        assert np.allclose(result.state.coeffs[:8], expected, rtol=0.0, atol=1e-14)

    def test_custom_truncates_and_renormalizes(self):
        tail_amp = math.sqrt(1e-13)
        coeffs = np.zeros(7, dtype=complex)
        coeffs[0] = math.sqrt(1.0 - 1e-13)
        coeffs[6] = tail_amp
        result = materialize(FockVector(coeffs), TruncationPolicy(3))
        assert result.state.dim == 4
        assert result.discarded_mass == pytest.approx(1e-13, rel=1e-6)
        assert abs(np.linalg.norm(result.state.coeffs) - 1.0) <= 1e-12

    def test_custom_truncation_beyond_tolerance_raises(self):
        coeffs = np.zeros(7, dtype=complex)
        coeffs[0] = coeffs[6] = math.sqrt(0.5)
        with pytest.raises(TruncationError):
            materialize(FockVector(coeffs), TruncationPolicy(3))

    def test_mixture_density(self):
        mix = Mixture((0.5, 0.5), (number_vector(0), number_vector(1)))
        result = materialize(mix, TruncationPolicy(4))
        assert isinstance(result.state, DensityMatrix)
        assert np.allclose(result.state.diagonal(), [0.5, 0.5, 0.0, 0.0, 0.0])

    @given(
        st.one_of(
            st.integers(min_value=0, max_value=10).map(Number),
            st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False).map(
                Coherent
            ),
            # betaE >= 0.6 keeps the geometric tail below the default
            # 1e-12 tolerance at cutoff 48
            st.floats(min_value=0.6, max_value=3.0).map(Thermal),
        )
    )
    def test_materialized_states_are_valid(self, family):
        result = materialize(family, TruncationPolicy(48))
        if isinstance(result.state, DensityMatrix):
            assert validate_density_matrix(result.state.elems) == []
        else:
            assert abs(np.linalg.norm(result.state.coeffs) - 1.0) <= 1e-10
        assert 0.0 <= result.discarded_mass < 1e-12


class TestNumberExpectation:
    def test_number_state(self):
        assert number_expectation(number_vector(4)) == 4.0

    def test_coherent_poisson_mean(self):
        state = materialize(Coherent(1.3), TruncationPolicy(48)).state
        assert number_expectation(state) == pytest.approx(1.69, abs=1e-10)

    def test_thermal_bose_einstein_mean(self):
        # betaE = ln 2 puts the mean occupation at 1/(e^{betaE} - 1) = 1
        state = materialize(Thermal(math.log(2.0)), TruncationPolicy(64)).state
        assert number_expectation(state) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_higher_rank(self):
        with pytest.raises(ValidationError):
            number_expectation(np.zeros((2, 2, 2)))

    def test_rejects_raw_arrays(self):
        with pytest.raises(ValidationError):
            number_expectation(np.array([0.0, 1.0 + 0.0j]))
        with pytest.raises(ValidationError):
            number_expectation(np.diag([0.5, 0.5]).astype(complex))


class TestOverlapFromProfile:
    def test_constant_profile_half_region(self):
        samples = [(x, 1.0) for x in np.linspace(0.0, 1.0, 101)]
        assert overlap_from_profile(samples, (0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_full_support_is_one(self):
        samples = [(x, 0.3 * x + 0.1) for x in np.linspace(-1.0, 2.0, 301)]
        assert overlap_from_profile(samples, (-1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_half_line(self):
        xs = np.arange(-6.0, 6.0 + 1e-9, 0.001)
        samples = list(zip(xs, np.exp(-(xs**2) / 2.0)))
        assert overlap_from_profile(samples, (0.0, 6.0)) == pytest.approx(0.5, abs=1e-6)

    def test_disjoint_region_is_zero(self):
        samples = [(x, 1.0) for x in np.linspace(0.0, 1.0, 11)]
        assert overlap_from_profile(samples, (2.0, 3.0)) == 0.0

    def test_zero_norm_rejected(self):
        samples = [(x, 0.0) for x in np.linspace(0.0, 1.0, 11)]
        with pytest.raises(ValidationError):
            overlap_from_profile(samples, (0.0, 1.0))

    def test_unsorted_positions_rejected(self):
        with pytest.raises(ValidationError):
            overlap_from_profile([(0.0, 1.0), (0.0, 1.0), (1.0, 1.0)], (0.0, 1.0))

    def test_inverted_region_rejected(self):
        samples = [(x, 1.0) for x in np.linspace(0.0, 1.0, 11)]
        with pytest.raises(ValidationError):
            overlap_from_profile(samples, (1.0, 0.0))

    @pytest.mark.parametrize(
        "samples, cause",
        [
            ([(0.0, 1e200), (1.0, 1e200), (2.0, 1e200)], "squared magnitudes overflow"),
            ([(0.0, 1e154), (1.0, 1.3e154), (2.0, 1e154)], "norm overflows"),
            ([(-1e308, 1.0), (0.0, 1.0), (1e308, 1.0)], "norm overflows"),
            ([(0.0, 1e-200), (1e300, 1e150)], "norm overflows"),
            # the positions' step, 2e308, overflows to inf; they still increase
            ([(-1e308, 1.0), (1e308, 1.0)], "norm overflows"),
            # nonzero values whose squares underflow to 0
            ([(0.0, 5e-324), (1.0, 5e-324)], "squared magnitudes underflow to 0"),
            # zeros under an infinite step: the quadrature would form inf * 0
            ([(-1e308, 0.0), (1e308, 0.0)], "zero norm"),
            # |value|^2 is 5e-324, but its product with the 5e-324 step underflows
            ([(0.0, 2e-162), (5e-324, 2e-162)], "norm underflows"),
        ],
    )
    def test_finite_but_overflowing_profile_names_the_cause(self, samples, cause):
        # RuntimeWarnings are errors in this suite, so none may be raised on the way
        with pytest.raises(ValidationError, match=cause):
            overlap_from_profile(samples, (-1e308, 1e308))

    @pytest.mark.parametrize(
        "samples, region",
        [
            # a finite norm, 5e-324, but the slope 1/1e-323 at the region end is inf
            ([(0.0, 0.0), (1e-323, 1.0)], (0.0, 5e-324)),
            ([(0.0, 1.0), (1e-323, 0.0)], (0.0, 5e-324)),
            # ends in two such steps, slopes +inf and -inf: their sum is NaN
            (
                [(0.0, 0.0), (1e-323, 1.0), (1.0, 1e150), (1.0 + 2**-51, 0.0)],
                (5e-324, 1.0 + 2**-52),
            ),
        ],
    )
    def test_overflowing_slope_at_region_end_names_the_cause(self, samples, region):
        with pytest.raises(ValidationError, match="slope of \\|value\\|\\^2 at a region end overflows"):
            overlap_from_profile(samples, region)

    def test_complex_profile_uses_magnitude(self):
        xs = np.linspace(0.0, 1.0, 201)
        samples = list(zip(xs, np.exp(1j * xs)))
        assert overlap_from_profile(samples, (0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=3, max_size=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_region_size(self, values, lo_frac, hi_frac):
        assume(sum(values) > 1e-6)
        xs = np.arange(len(values), dtype=float)
        samples = list(zip(xs, values))
        span = xs[-1]
        lo = lo_frac * span / 2.0
        hi = span - hi_frac * span / 2.0
        assume(lo < hi)
        inner = overlap_from_profile(samples, (lo, hi))
        outer = overlap_from_profile(samples, (lo / 2.0, (hi + span) / 2.0))
        assert inner <= outer + 1e-12
