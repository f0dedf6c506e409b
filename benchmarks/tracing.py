"""Spans around calls into probeview's public functions, installed from outside.

``traced(tracer)`` rebinds each function in TARGETS, in its defining module
and in every probeview module that imported it by name, to a wrapper that
records a span (name, start, end, parent span, operation id) and updates
exact counters.  Leaving the block restores the originals, so an untraced
run executes no wrapper.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional

import numpy as np

MODULES = ("cli", "reduction", "fock", "oracle", "analysis")
_MARK = "__bench_span_wrapper__"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    error: bool


def _count_validate(counts: Counter, args, kwargs, result) -> None:
    rho = args[0] if args else kwargs["rho"]
    counts["fock.validate_density_matrix.elems"] += int(np.size(getattr(rho, "elems", rho)))


def _count_series(counts: Counter, args, kwargs, result) -> None:
    dim = (args[0] if args else kwargs["psi"]).dim
    counts["reduction.series_terms"] += dim * (dim + 1) * (dim + 2) // 6


def _count_out_bytes(counts: Counter, args, kwargs, result) -> None:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if path != "-":
            counts["cli.out_bytes"] += os.path.getsize(path)


# (defining module, function, counter hook run after a successful call)
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", _count_out_bytes),
    ("reduction", "reduce_pure_general", _count_series),
    ("reduction", "reduce_mixed", None),
    ("reduction", "reduce_number_state", None),
    ("reduction", "reduce_coherent", None),
    ("fock", "validate_density_matrix", _count_validate),
    ("fock", "materialize", None),
    ("oracle", "expand_two_mode", None),
    ("oracle", "partial_trace_numeric", None),
    ("oracle", "compare_states", None),
    ("oracle", "random_fock_vectors", None),
    ("analysis", "purity", None),
)


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, error)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper


def probeview_modules() -> list:
    return [m for key, m in list(sys.modules.items()) if key == "probeview" or key.startswith("probeview.")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Bind span wrappers for the duration of the block; always restore."""
    bound = []
    try:
        for module, func, counter in TARGETS:
            original = getattr(importlib.import_module(f"probeview.{module}"), func)
            name = "cli.main" if module == "cli" else f"{module}.{func}"
            wrapper = tracer.wrap(name, original, counter)
            for mod in probeview_modules():
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)
                    bound.append((mod, func, original))
        yield tracer
    finally:
        for mod, func, original in reversed(bound):
            setattr(mod, func, original)


def installed_wrappers() -> list[str]:
    """Names of span wrappers still bound in any probeview module."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in probeview_modules()
        for attr, value in vars(mod).items()
        if getattr(value, _MARK, False)
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans: list[Span], counts: Counter, wall_s: float) -> dict[str, float]:
    """Per-function and per-module calls, self time, errors and shares of ``wall_s``."""
    metrics: dict[str, float] = {}
    for module, func, _ in TARGETS:
        prefix = "cli" if module == "cli" else f"{module}.{func}"
        metrics[f"{prefix}.calls"] = 0
        metrics[f"{prefix}.self_s"] = 0.0
        metrics[f"{prefix}.errors"] = 0
    for module in MODULES:
        metrics[f"{module}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        prefix = "cli" if span.name == "cli.main" else span.name
        metrics[f"{prefix}.calls"] += 1
        metrics[f"{prefix}.errors"] += int(span.error)
        if prefix != "cli":
            metrics[f"{prefix}.self_s"] += own
        metrics[f"{span.name.split('.')[0]}.self_s"] += own
    for module in MODULES:
        metrics[f"{module}.share"] = metrics[f"{module}.self_s"] / wall_s if wall_s > 0 else 0.0
    for key in ("cli.out_bytes", "reduction.series_terms", "fock.validate_density_matrix.elems"):
        metrics[key] = int(counts.get(key, 0))
    kernel_s = metrics["reduction.reduce_pure_general.self_s"]
    metrics["reduction.terms_per_s"] = metrics["reduction.series_terms"] / kernel_s if kernel_s > 0 else 0.0
    return metrics
