"""Timed closed loop for one workload, run in a fresh process by run.py.

One caller, no thread pool: each operation starts when the previous one
returns.  Only the operation itself is timed.  Persisting its output for
the checks in run.py happens after the timer stops, and peak RSS is read
before any checking starts.  With --trace 1 each repetition runs the
fixed list once untraced and once with span wrappers bound, so the
per-layer numbers and the tracing overhead come from the same process.

Usage: python3 benchmarks/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --rundir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

WARMUP_ELEMENT = 0


class Runner:
    """Executes list elements and stores each output for the checker."""

    def __init__(self, name: str, rundir: Path, pv):
        self.name = name
        self.rundir = rundir
        self.pv = pv
        self.count = 0
        self.kept: set[int] = set()

    def run(self, element: int, prepared, tag: str) -> dict:
        index = self.count
        self.count += 1
        out = self.rundir / f"op{index:05d}.out"
        error = None
        start = time.perf_counter()
        try:
            result = workloads.run_op(self.name, prepared, str(out), self.pv)
        except Exception as exc:  # a failed operation is counted, the loop goes on
            result = {}
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        record = {"index": index, "element": element, "tag": tag, "latency_s": latency, "error": error}
        if "code" in result:
            record["code"] = result["code"]
        if self.name == "kernel" and error is None and tag != "warmup":
            np.save(self.rundir / f"op{index:05d}-pure.npy", result["pure"])
            np.save(self.rundir / f"op{index:05d}-mixed.npy", result["mixed"])
        elif out.exists():
            record["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
            # CLI output is deterministic, so one full copy per element is enough;
            # the checker compares every repeat to it by digest
            if element in self.kept or tag == "warmup":
                out.unlink()
            else:
                self.kept.add(element)
                record["file"] = out.name
        return record


def run_pass(runner: Runner, prepared: list, tag: str, tracer=None) -> list[dict]:
    records = []
    for element, args in enumerate(prepared):
        if tracer is not None:
            tracer.op = runner.count
        records.append(runner.run(element, args, tag))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rundir", type=Path, required=True)
    args = parser.parse_args(argv)

    pv = workloads.import_probeview()
    spec = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(spec.name, args.seed, spec.list_size)
    prepared = [workloads.prepare(spec.name, inp, pv) for inp in inputs]
    runner = Runner(spec.name, args.rundir, pv)

    runner.run(WARMUP_ELEMENT, prepared[WARMUP_ELEMENT], "warmup")
    ops: list[dict] = []
    passes: list[float] = []
    traced_passes: list[float] = []
    rep_metrics: list[dict] = []
    spans: list[list] = []
    timed = 0.0
    while timed < args.seconds:
        records = run_pass(runner, prepared, "untraced")
        ops += records
        passes.append(sum(r["latency_s"] for r in records))
        timed += passes[-1]
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                records = run_pass(runner, prepared, "traced", tracer)
            ops += records
            traced_passes.append(sum(r["latency_s"] for r in records))
            timed += traced_passes[-1]
            rep_metrics.append(tracing.layer_metrics(tracer.spans, tracer.counts, traced_passes[-1]))
            spans += [list(s) for s in tracer.spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"ops": ops, "passes_s": passes, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        result["traced_passes_s"] = traced_passes
        result["rep_metrics"] = rep_metrics
        result["wrappers_left"] = tracing.installed_wrappers()
        (args.rundir / "spans.json").write_text(json.dumps(spans))
    (args.rundir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
