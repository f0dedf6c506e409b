"""Tests of the benchmark's own logic, at small sizes.

Run from the repository root: python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

pv = workloads.import_probeview()

SMALL_CUTOFF = 24
SMALL_KERNEL = {"kernel_n": 16, "supports": (2, 4, 8)}


def _kernel_inputs(seed: int, size: int = 3):
    return workloads.make_inputs("kernel", seed, size, **SMALL_KERNEL)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    def draw(seed):
        inputs = workloads.make_inputs(name, seed, 3, **SMALL_KERNEL)
        if name == "kernel":
            return [np.concatenate([i.pure, *i.components, i.weights]) for i in inputs]
        return [np.atleast_1d(i) for i in inputs]

    first, again, other = draw(7), draw(7), draw(8)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))


def test_reduce_inputs_keep_the_modulus_fixed():
    for alpha in workloads.make_inputs("reduce-json", 3, 5):
        assert abs(abs(alpha) - workloads.ALPHA_ABS) < 1e-15


def test_self_time_subtracts_only_covered_child_time():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, None, 0, False),
        S("reduction.reduce_pure_general", 1.0, 4.0, 0, 0, False),
        S("fock.validate_density_matrix", 2.0, 3.0, 1, 0, False),
        S("fock.materialize", 5.0, 6.5, 0, 0, False),
        S("cli.main", 20.0, 21.0, None, 1, False),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    metrics = tracing.layer_metrics(spans, tracing.Counter(), wall_s=11.0)
    assert metrics["cli.calls"] == 2
    assert metrics["cli.self_s"] == pytest.approx(6.5)
    assert metrics["fock.self_s"] == pytest.approx(2.5)
    assert metrics["reduction.share"] == pytest.approx(2.0 / 11.0)


def test_self_time_counts_overlapping_children_once():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, None, 0, False),
        S("oracle.compare_states", 1.0, 5.0, 0, 0, False),
        S("oracle.compare_states", 3.0, 7.0, 0, 0, False),
        S("oracle.compare_states", 9.0, 12.0, 0, 0, False),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


PARSERS = {"json": checks.parse_reduce_json, "csv": checks.parse_reduce_csv}


def _reduce_output(tmp_path: Path, fmt: str, alpha: complex) -> str:
    out = tmp_path / f"out.{fmt}"
    assert pv.cli.main(workloads.reduce_argv(alpha, fmt, str(out), cutoff=SMALL_CUTOFF)) == 0
    return out.read_text()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reduce_checker_passes_real_output_and_fails_corruption(tmp_path, fmt):
    alpha = workloads.make_inputs("reduce-json", 1, 1)[0]
    text = _reduce_output(tmp_path, fmt, alpha)
    entries = PARSERS[fmt](text)
    assert checks.reduce_problems(entries, alpha, pv, cutoff=SMALL_CUTOFF) == []

    # one matrix element changed in its leading digits
    value = "%.17g" % entries[5].rho[1, 2].real
    assert value in text
    bumped = text.replace(value, "%.17g" % (float(value) * 1.001), 1)
    assert checks.reduce_problems(PARSERS[fmt](bumped), alpha, pv, cutoff=SMALL_CUTOFF)

    # one byte of a number replaced by a letter
    at = text.index(value) + 3
    garbled = text[:at] + "x" + text[at + 1 :]
    with pytest.raises(ValueError):
        PARSERS[fmt](garbled)


def test_json_and_csv_parse_to_identical_floats(tmp_path):
    alpha = workloads.make_inputs("reduce-json", 2, 1)[0]
    as_json = checks.parse_reduce_json(_reduce_output(tmp_path, "json", alpha))
    as_csv = checks.parse_reduce_csv(_reduce_output(tmp_path, "csv", alpha))
    assert checks.bit_identical(as_json, as_csv)
    as_csv[3].rho[0, 0] = np.nextafter(as_csv[3].rho[0, 0].real, 2.0)
    assert not checks.bit_identical(as_json, as_csv)


def test_kernel_checker_passes_real_results_and_fails_a_corrupted_element():
    inp = _kernel_inputs(4)[1]
    psi, mixture, q0sq = workloads.prepare("kernel", inp, pv)
    result = workloads.run_op("kernel", (psi, mixture, q0sq), "", pv)
    oracle = checks.kernel_oracle(inp, pv)
    assert checks.kernel_problems(inp, result["pure"], result["mixed"], oracle) == []
    for label in ("pure", "mixed"):
        corrupted = dict(result)
        corrupted[label] = result[label].copy()
        corrupted[label][2, 1] += 1e-9
        assert checks.kernel_problems(inp, corrupted["pure"], corrupted["mixed"], oracle)


def test_oracle_check_checker_reads_status(tmp_path):
    out = tmp_path / "oracle.json"
    code = pv.cli.main(workloads.oracle_argv(5, str(out), max_n=3))
    assert checks.oracle_check_problems(out.read_text(), code) == []
    bad = out.read_text().replace('"status": "ok"', '"status": "disagreement"')
    assert checks.oracle_check_problems(bad, 3)


def _traced_counts(tmp_path: Path) -> tuple[dict, tracing.Tracer]:
    tracer = tracing.Tracer()
    prepared = [workloads.prepare("kernel", inp, pv) for inp in _kernel_inputs(11)]
    with tracing.traced(tracer):
        for k, args in enumerate(prepared):
            tracer.op = k
            workloads.run_op("kernel", args, "", pv)
        pv.cli.main(workloads.oracle_argv(3, str(tmp_path / "o.json"), max_n=3))
        pv.cli.main(workloads.reduce_argv(0.5 + 0.25j, "csv", str(tmp_path / "r.csv"), cutoff=12))
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, wall_s=1.0)
    return {k: metrics[k] for k in run.EXACT_COUNTS if k in metrics}, tracer


def test_traced_run_leaves_no_wrapper_and_counts_repeat_exactly(tmp_path):
    originals = {name: getattr(pv.cli, name) for name in ("reduce_pure_general", "purity", "materialize")}
    first, tracer = _traced_counts(tmp_path)
    assert tracing.installed_wrappers() == []
    assert {name: getattr(pv.cli, name) for name in originals} == originals
    assert pv.fock.validate_density_matrix is pv.analysis.validate_density_matrix
    second, _ = _traced_counts(tmp_path)
    assert first == second
    # every layer was reached through the rebound names
    for key in ("cli.calls", "reduction.reduce_mixed.calls", "fock.materialize.calls", "analysis.purity.calls"):
        assert first[key] > 0, key
    assert first["oracle.expand_two_mode.calls"] > 0
    assert first["cli.out_bytes"] == (tmp_path / "o.json").stat().st_size + (tmp_path / "r.csv").stat().st_size
    roots = [s for s in tracer.spans if s.parent is None]
    assert all(s.op is not None for s in tracer.spans)
    assert {s.name for s in roots} >= {"reduction.reduce_pure_general", "reduction.reduce_mixed", "cli.main"}


def test_series_terms_follow_the_input_size():
    tracer = tracing.Tracer()
    psi = pv.FockVector(np.ones(5) / np.sqrt(5.0))
    with tracing.traced(tracer):
        pv.reduction.reduce_pure_general(psi, pv.ModeSplit.from_q0sq(0.3))
    # N = 4: (N+1)(N+2)(N+3)/6 = 35
    assert tracer.counts["reduction.series_terms"] == 35


def test_wrappers_are_removed_when_the_traced_call_raises():
    tracer = tracing.Tracer()
    with pytest.raises(pv.ValidationError):
        with tracing.traced(tracer):
            pv.reduction.reduce_pure_general("not a state", pv.ModeSplit.from_q0sq(0.5))
    assert tracing.installed_wrappers() == []
    assert tracing.layer_metrics(tracer.spans, tracer.counts, 1.0)["reduction.reduce_pure_general.errors"] == 1


def test_tail_latency_keeps_ten_samples_beyond_when_it_can():
    assert run.tail_latency([float(k) for k in range(100)]) == (89.0, 90.0, 10)
    latency, percentile, beyond = run.tail_latency([float(k) for k in range(8)])
    assert (latency, beyond) == (5.0, 2)


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
