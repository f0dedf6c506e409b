"""probeview benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 benchmarks/run.py --workload reduce-json --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no wrapper installed;
--trace 1 runs the same fixed list untraced and traced in turn and reports
the per-layer metrics.  Outputs are checked after the timed loop.  The last
line of standard output is {"correct", "attempted", "failed", "metrics"};
the line before it is a report with the environment and the details behind
each figure.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, BenchSetupError

BENCH = Path(__file__).resolve().parent
RUNS = ROOT / ".bench_run"
SETUP_SPAWNS = 9
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

_CALLS_SELF = ("calls", "self_s")
_FUNCTIONS = {
    "reduction.reduce_pure_general": _CALLS_SELF + ("errors",),
    "reduction.reduce_mixed": _CALLS_SELF + ("errors",),
    "reduction.reduce_number_state": _CALLS_SELF,
    "reduction.reduce_coherent": _CALLS_SELF,
    "fock.validate_density_matrix": _CALLS_SELF + ("elems",),
    "fock.materialize": _CALLS_SELF + ("errors",),
    "oracle.expand_two_mode": _CALLS_SELF,
    "oracle.partial_trace_numeric": _CALLS_SELF,
    "oracle.compare_states": _CALLS_SELF,
    "oracle.random_fock_vectors": _CALLS_SELF,
    "analysis.purity": _CALLS_SELF,
}
_UNITS = {"calls": "count", "errors": "count", "elems": "count", "self_s": "s", "share": "ratio"}
PER_LAYER = {
    "cli.calls": "count",
    "cli.out_bytes": "B",
    **{f"{fn}.{field}": _UNITS[field] for fn, fields in _FUNCTIONS.items() for field in fields},
    "reduction.series_terms": "count",
    "reduction.terms_per_s": "1/s",
    **{f"{m}.{field}": _UNITS[field] for m in ("cli", "reduction", "fock", "oracle", "analysis") for field in ("self_s", "share")},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
EXACT_COUNTS = [k for k, unit in PER_LAYER.items() if unit in ("count", "B")]

# which end-to-end metric each layer metric should move, and where
LAYER_MOVES = {
    "cli.self_s, cli.calls": "wall_s and op_p50_s on reduce-json (about 97%); "
    "no change on kernel, near zero on oracle-check",
    "cli.out_bytes": "peak_rss_mb on reduce-json",
    "reduction.reduce_pure_general.*": "wall_s and op_p50_s on kernel and oracle-check; no change on reduce-json",
    "reduction.reduce_mixed.*": "wall_s and op_p50_s on kernel",
    "reduction.reduce_number_state.*": "wall_s on oracle-check",
    "reduction.reduce_coherent.*": "reduce-json, by a small amount",
    "reduction.terms_per_s": "wall_s on kernel (series_terms is fixed by the input sizes)",
    "fock.validate_density_matrix.*": "wall_s on oracle-check (about 11%) and kernel (about 2%, "
    "the blocking step once the kernel is fast)",
    "fock.materialize.*": "reduce-json",
    "oracle.*": "wall_s on oracle-check only",
    "analysis.purity.*": "reduce-json, by a small amount",
}


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter()
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": seed,
        "note": "the reference figures in benchmarks/README.md come from a shared 2-vCPU VM whose "
        "speed drifts with other tenants' load; times are medians of repeats",
    }


def measure_setup() -> list[float]:
    """Fresh-interpreter import of probeview and probeview.cli, after one untimed spawn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import probeview, probeview.cli"]
    times = []
    for k in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchSetupError(f"importing probeview failed:\n{proc.stderr}")
        if k:
            times.append(elapsed)
    return times


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with ten samples beyond it.

    With fewer than 40 samples that percentile would fall inside the upper
    quartile, so the number of samples beyond is capped at a quarter of the
    count.  Returns (latency, percentile, samples beyond).
    """
    ordered = sorted(latencies)
    beyond = min(10, len(ordered) // 4)
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def check_ops(name: str, seed: int, ops: list[dict], rundir: Path) -> dict[int, list[str]]:
    """Check every operation; returns the problems found per op index."""
    import numpy as np

    import checks
    import workloads

    pv = workloads.import_probeview()
    inputs = workloads.make_inputs(name, seed, WORKLOADS[name].list_size)
    per_op = {op["index"]: [op["error"]] if op["error"] else [] for op in ops}

    if name == "kernel":
        oracle = {}
        for op in ops:
            if per_op[op["index"]]:
                continue
            inp = inputs[op["element"]]
            if op["element"] not in oracle:
                oracle[op["element"]] = checks.kernel_oracle(inp, pv)
            pure = np.load(rundir / f"op{op['index']:05d}-pure.npy")
            mixed = np.load(rundir / f"op{op['index']:05d}-mixed.npy")
            per_op[op["index"]] += checks.kernel_problems(inp, pure, mixed, oracle[op["element"]])
        return per_op

    # CLI workloads: the kept copy of each element is checked in full, every
    # repeat must hash to the same bytes
    element_problems: dict[int, list[str]] = {}
    first_digest: dict[int, str] = {}
    parsed0 = None
    for op in ops:
        if "file" not in op:
            continue
        element = op["element"]
        first_digest[element] = op["sha256"]
        data = (rundir / op["file"]).read_bytes()
        problems = []
        try:
            text = data.decode("utf-8")
            if name == "oracle-check":
                problems = checks.oracle_check_problems(text, op.get("code"))
            else:
                entries = checks.parse_reduce_json(text)
                problems = checks.reduce_problems(entries, inputs[element], pv)
                if element == 0:
                    parsed0 = entries
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unparseable output: {type(exc).__name__}: {exc}"]
        element_problems[element] = problems

    if parsed0 is not None:
        # the CSV output of element 0 must parse to bit-identical floats
        path = rundir / "cross.csv"
        code = pv.cli.main(workloads.reduce_argv(inputs[0], "csv", str(path)))
        try:
            same = code == 0 and checks.bit_identical(parsed0, checks.parse_reduce_csv(path.read_text()))
        except (ValueError, KeyError, IndexError, TypeError):
            same = False
        if not same:
            element_problems[0].append("csv output of the same input differs")

    for op in ops:
        problems = per_op[op["index"]]
        if problems:
            continue
        if op.get("code") != 0:
            problems.append(f"exit code {op.get('code')}")
        if op.get("sha256") != first_digest.get(op["element"]):
            problems.append("output bytes differ from the checked copy")
        problems += element_problems.get(op["element"], ["no checked copy of this input"])
    return per_op


def layer_result(worker: dict) -> tuple[dict, list[str]]:
    """Median over repetitions; exact counts must agree across repetitions."""
    reps = worker["rep_metrics"]
    problems = [f"wrapper still installed: {name}" for name in worker["wrappers_left"]]
    for key in EXACT_COUNTS:
        if len({rep[key] for rep in reps}) != 1:
            problems.append(f"count {key} differs across repetitions: {[rep[key] for rep in reps]}")
    metrics = {
        key: reps[0][key] if key in EXACT_COUNTS else statistics.median(rep[key] for rep in reps)
        for key in PER_LAYER
        if key in reps[0]
    }
    metrics["trace.wall_s"] = statistics.median(worker["traced_passes_s"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(worker["passes_s"])
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="probeview benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    try:
        if not (SRC / "probeview" / "__init__.py").is_file():
            raise BenchSetupError(f"probeview sources not found under {SRC}")
        rundir.mkdir(parents=True)
        setup = [] if args.trace else measure_setup()
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--rundir", str(rundir),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchSetupError(f"worker failed with code {proc.returncode}:\n{proc.stderr[-4000:]}")
        worker = json.loads((rundir / "worker.json").read_text())
        per_op = check_ops(args.workload, args.seed, worker["ops"], rundir)
        spans = rundir / "spans.json"
        if spans.exists():
            spans.replace(RUNS / f"spans-{args.workload}-seed{args.seed}.json")
    except (BenchSetupError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    ops = worker["ops"]
    failed = sum(1 for problems in per_op.values() if problems)
    untraced = [op["latency_s"] for op in ops if op["tag"] == "untraced"]
    tail, tail_pct, beyond = tail_latency(untraced)
    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seconds": args.seconds,
        "trace": args.trace,
        "list_size": WORKLOADS[args.workload].list_size,
        "passes": len(worker["passes_s"]),
        "pass_s": worker["passes_s"],
        "op_samples": len(untraced),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "fail_frac": failed / len(ops),
        "setup_samples_s": setup,
        "problems": sorted({p for problems in per_op.values() for p in problems})[:20],
        "environment": environment(args.seed),
    }
    run_problems = []
    if args.trace:
        metrics, run_problems = layer_result(worker)
        report["layer_moves"] = LAYER_MOVES
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(worker["passes_s"]),
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tail,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = END_TO_END
    report["run_problems"] = run_problems
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
