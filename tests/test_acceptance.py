"""End-to-end acceptance gate.

Each test below is one release criterion, checked at its stated tolerance,
and prints a single ``acceptance criterion k (label): PASS``/``FAIL`` line
(visible with ``pytest -rA`` or ``-s``; the verbose test id carries the
same verdict).  All criteria together run in a few seconds.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import cat_vector, number_vector, spectral_mixture, split_from_amplitude
from probeview import (
    Coherent,
    ModeSplit,
    Thermal,
    TruncationPolicy,
    beta_prime,
    compare_states,
    expand_two_mode,
    materialize,
    number_expectation,
    partial_trace_numeric,
    purity,
    purity_sweep,
    random_fock_vectors,
    reduce_coherent,
    reduce_mixed,
    reduce_number_state,
    reduce_pure_general,
    reduce_thermal,
)
from probeview.cli import main


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {number} ({label}): FAIL")
        raise
    print(f"acceptance criterion {number} ({label}): PASS")


ELEVEN_GRID = np.round(np.linspace(0.0, 1.0, 11), 10)
TWENTYONE_GRID = np.round(np.linspace(0.0, 1.0, 21), 10)


def test_criterion_1_binomial_reduction_agreement():
    with criterion(1, "binomial reduction, three routes agree"):
        start = time.monotonic()
        worst = 0.0
        for n in range(9):
            for q0sq in ELEVEN_GRID:
                split = ModeSplit(float(q0sq))
                closed = reduce_number_state(n, split).elems
                series = reduce_pure_general(number_vector(n), split).rho0.elems
                numeric = partial_trace_numeric(
                    expand_two_mode(number_vector(n), split, max(n, 1))
                ).elems
                dim = closed.shape[0]
                oracle = np.zeros_like(closed)
                oracle[: numeric.shape[0], : numeric.shape[0]] = numeric[:dim, :dim]
                worst = max(
                    worst,
                    float(np.max(np.abs(closed - series))),
                    float(np.max(np.abs(closed - oracle))),
                    float(np.max(np.abs(series - oracle))),
                )
        elapsed = time.monotonic() - start
        assert worst <= 1e-10, f"three-way disagreement {worst:.3e}"
        assert elapsed < 1.0, f"criterion took {elapsed:.2f} s"


def test_criterion_2_number_state_purity_sweep():
    with criterion(2, "number-state purity curve"):
        result = purity_sweep(range(1, 6), TWENTYONE_GRID)
        frozen = {1: 0.5, 2: 0.375, 3: 0.3125, 4: 0.2734375, 5: 0.24609375}
        by_n = {}
        for n, q0sq, value in result.tolist():
            by_n.setdefault(int(n), []).append((q0sq, value))
        assert sorted(by_n) == [1, 2, 3, 4, 5]
        for n, points in by_n.items():
            values = [v for _, v in points]
            assert values[0] == 1.0 and values[-1] == 1.0
            k_min = int(np.argmin(values))
            assert points[k_min][0] == 0.5
            assert abs(values[k_min] - frozen[n]) <= 1e-12
            for k in range(len(values)):
                assert abs(values[k] - values[len(values) - 1 - k]) <= 1e-12


def test_criterion_3_coherent_states_stay_coherent():
    with criterion(3, "coherent invariance under reduction"):
        cutoff = 48
        phases = (1.0, complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)))
        for magnitude in (0.5, 1.0, 2.0):
            for phase in phases:
                alpha = magnitude * phase
                psi = materialize(Coherent(alpha), TruncationPolicy(cutoff)).state
                for q0sq in (0.25, 0.5, 0.75):
                    split = ModeSplit(q0sq)
                    rho = reduce_pure_general(psi, split).rho0
                    target = materialize(
                        reduce_coherent(alpha, split), TruncationPolicy(cutoff)
                    ).state
                    pure = np.outer(target.coeffs, target.coeffs.conj())
                    result = compare_states(pure, rho.elems)
                    assert result.fidelity_if_pure is not None
                    assert result.fidelity_if_pure >= 1.0 - 1e-8
                    assert abs(purity(rho) - 1.0) <= 1e-8


def test_criterion_4_thermal_temperature_map():
    with criterion(4, "thermal states stay thermal at beta-prime"):
        for beta_energy in (0.2, 0.7, math.log(2.0), 2.0, 5.0):
            support = 0
            while math.exp(-beta_energy * (support + 1)) >= 1e-12:
                support += 1
            thermal = materialize(
                Thermal(beta_energy), TruncationPolicy(support, tail_tol=1e-12)
            )
            assert thermal.discarded_mass < 1e-12
            weights = thermal.state.diagonal()
            for q0sq in (0.25, 0.5, 1.0):
                split = ModeSplit(q0sq)
                diag = np.zeros(support + 1)
                for n in range(support + 1):
                    reduced = partial_trace_numeric(
                        expand_two_mode(number_vector(n), split, max(n, 1))
                    ).elems
                    diag[: reduced.shape[0]] += weights[n] * np.diag(reduced).real
                bpe = beta_prime(beta_energy, q0sq)
                ratio = math.exp(-bpe)
                geometric = (1.0 - ratio) * ratio ** np.arange(support + 1)
                assert float(np.max(np.abs(diag - geometric))) <= 1e-8
        spot = beta_prime(math.log(2.0), 0.5)
        assert abs(spot - math.log(3.0)) <= 1e-12
        for beta_energy in (0.2, 0.7, math.log(2.0), 2.0, 5.0):
            mean = 1.0 / math.expm1(beta_energy)
            for q0sq in (0.25, 0.5, 1.0):
                bpe = beta_prime(beta_energy, q0sq)
                assert abs(1.0 / math.expm1(bpe) - q0sq * mean) <= 1e-9


def test_criterion_5_equal_superposition_reduction():
    with criterion(5, "two-level superposition matrix and purity curve"):
        report = reduce_pure_general(cat_vector(), ModeSplit(0.5))
        rho = report.rho0.elems
        assert abs(rho[0, 0] - 0.75) <= 1e-12
        assert abs(rho[1, 1] - 0.25) <= 1e-12
        assert abs(rho[0, 1] - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-12
        assert abs(purity(report.rho0) - 0.875) <= 1e-12
        for q0sq in TWENTYONE_GRID:
            q0sq = float(q0sq)
            numeric = purity(reduce_pure_general(cat_vector(), ModeSplit(q0sq)).rho0)
            closed = 0.5 * (2.0 - q0sq + q0sq * q0sq)
            assert abs(numeric - closed) <= 1e-12


def test_criterion_6_reduction_composes():
    with criterion(6, "two-step reduction equals one step"):
        pairs = ((0.8, 0.7), (0.5, 0.9), (0.9, 0.3))
        for psi in random_fock_vectors(50, 6, seed=20240516):
            for qa, qb in pairs:
                first = reduce_pure_general(psi, split_from_amplitude(qa)).rho0
                second = reduce_mixed(
                    spectral_mixture(first), split_from_amplitude(qb)
                ).rho0.elems
                direct = reduce_pure_general(psi, split_from_amplitude(qa * qb)).rho0.elems
                assert float(np.max(np.abs(second - direct))) <= 1e-9
        for qa, qb in pairs:
            # number family
            first = reduce_number_state(4, split_from_amplitude(qa))
            second = reduce_mixed(spectral_mixture(first), split_from_amplitude(qb)).rho0.elems
            direct = reduce_number_state(4, split_from_amplitude(qa * qb)).elems
            assert float(np.max(np.abs(second - direct))) <= 1e-9
            # coherent family
            stepped = reduce_coherent(
                reduce_coherent(1.5, split_from_amplitude(qa)).alpha, split_from_amplitude(qb)
            )
            assert abs(stepped.alpha - 1.5 * qa * qb) <= 1e-9
            # thermal family
            stepped_beta = reduce_thermal(
                reduce_thermal(0.9, split_from_amplitude(qa)).beta_energy,
                split_from_amplitude(qb),
            ).beta_energy
            direct_beta = reduce_thermal(0.9, split_from_amplitude(qa * qb)).beta_energy
            assert abs(stepped_beta - direct_beta) <= 1e-9


def test_criterion_7_mean_occupation_scaling():
    with criterion(7, "mean occupation scales by the overlap"):
        splits = [ModeSplit(q) for q in (0.25, 0.5, 0.75)]
        pure_states = [number_vector(n) for n in range(9)]
        pure_states.append(cat_vector())
        pure_states.extend(random_fock_vectors(50, 6, seed=20240516))
        for magnitude in (0.5, 1.0, 2.0):
            pure_states.append(materialize(Coherent(magnitude), TruncationPolicy(48)).state)
        for psi in pure_states:
            before = number_expectation(psi)
            for split in splits:
                after = number_expectation(reduce_pure_general(psi, split).rho0)
                assert abs(after - split.q0sq * before) <= 1e-9
        for beta_energy in (0.7, math.log(2.0), 2.0, 5.0):
            original = materialize(Thermal(beta_energy), TruncationPolicy(64)).state
            before = number_expectation(original)
            for split in splits:
                reduced = materialize(
                    reduce_thermal(beta_energy, split), TruncationPolicy(64)
                ).state
                assert abs(number_expectation(reduced) - split.q0sq * before) <= 1e-9


def test_criterion_8_cli_runs_are_deterministic(capsys, tmp_path):
    profile = tmp_path / "profile.txt"
    x = np.linspace(-5.0, 5.0, 501)
    np.savetxt(profile, np.column_stack([x, np.exp(-(x**2))]))
    command_lines = [
        ("reduce", "--alpha", "1.2,0.4", "--q0sq", "0:1:0.2", "--format", "json"),
        ("reduce", "--state", '{"family": "number", "n": 5}', "--q0sq", "0.35", "--format", "csv"),
        ("sweep-purity", "--max-n", "5", "--format", "csv"),
        ("sweep-thermal", "--q0sq", "0.25:1:0.25", "--format", "json"),
        ("oracle-check", "--max-n", "4", "--format", "json"),
        ("profile-overlap", "--profile", str(profile), "--region=0:5", "--format", "csv"),
    ]
    with criterion(8, "byte-identical CLI reruns"):
        for argv in command_lines:
            code_a = main(list(argv))
            out_a = capsys.readouterr().out
            code_b = main(list(argv))
            out_b = capsys.readouterr().out
            assert code_a == code_b == 0
            assert out_a == out_b and out_a
        argv = [
            sys.executable,
            "-m",
            "probeview",
            "oracle-check",
            "--max-n",
            "3",
            "--format",
            "json",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["status"] == "ok"
