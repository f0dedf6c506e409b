"""The benchmark workloads: seeded inputs and the one operation each repeats.

Each workload has a fixed list of ``list_size`` operations drawn from the
seed.  A run repeats that list (one repetition is a *pass*) in a closed
loop with one caller until the measuring time is used up, so every pass
does the same work and its time is comparable across runs and commits.

The operations call probeview through module attributes
(``probeview.cli.main``, ``probeview.reduction.reduce_pure_general``), so
span wrappers bound onto those modules by ``tracing`` see every call.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ALPHA_ABS = abs(1.2 + 0.4j)
REDUCE_GRID = "0:1:0.1"
REDUCE_POINTS = 11
REDUCE_CUTOFF = 128
KERNEL_N = 256
MIXTURE_SUPPORTS = (8, 16, 32, 64)
KERNEL_Q0SQ = (1e-6, 0.5, 1.0 - 1e-6)
ORACLE_MAX_N = 12


class BenchSetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources, failed import)."""


def import_probeview():
    """Import probeview from this checkout's ``src``, never from site-packages."""
    init = SRC / "probeview" / "__init__.py"
    if not init.is_file():
        raise BenchSetupError(f"probeview sources not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import probeview
    import probeview.cli

    if Path(probeview.__file__).resolve() != init.resolve():
        raise BenchSetupError(f"imported probeview from {probeview.__file__}, expected {init}")
    return probeview


@dataclass(frozen=True)
class Workload:
    name: str
    list_size: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reduce-json",
            2,
            "CLI reduce of a coherent state at cutoff 128 in the default JSON format; "
            "cli rendering is nearly all of it and the series kernel never runs",
        ),
        Workload(
            "kernel",
            3,
            "library reduce_pure_general at N=256 plus reduce_mixed on a padded 4-component "
            "mixture; the reduction kernel is nearly all of it and cli does nothing",
        ),
        Workload(
            "oracle-check",
            3,
            "CLI oracle-check --max-n 12: thousands of small-N series, oracle and validation "
            "calls, where per-call overhead dominates",
        ),
    )
}


@dataclass(frozen=True)
class KernelInput:
    """Amplitude arrays for one kernel operation; wrapped into probeview types later."""

    pure: np.ndarray
    weights: tuple[float, ...]
    components: tuple[np.ndarray, ...]
    q0sq: float


Input = Union[complex, KernelInput, int]


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


def make_inputs(
    name: str,
    seed: int,
    list_size: int,
    kernel_n: int = KERNEL_N,
    supports: tuple[int, ...] = MIXTURE_SUPPORTS,
) -> list[Input]:
    """The workload's fixed operation list; the same seed gives the same list.

    reduce-json: coherent amplitudes of fixed modulus |1.2+0.4i| with a seeded
    phase, so the work per operation does not depend on the seed.
    kernel: a random pure state of support ``kernel_n`` and a mixture with
    one component per entry of ``supports``; q0sq cycles through KERNEL_Q0SQ.
    oracle-check: the ``--seed`` passed to each oracle-check call.
    """
    rng = np.random.default_rng(seed)
    if name == "reduce-json":
        return [cmath.rect(ALPHA_ABS, rng.uniform(0.0, 2.0 * math.pi)) for _ in range(list_size)]
    if name == "kernel":
        inputs = []
        for k in range(list_size):
            pure = _unit_vector(rng, kernel_n + 1)
            raw_weights = rng.uniform(0.1, 1.0, len(supports))
            weights = tuple(float(w) for w in raw_weights / raw_weights.sum())
            components = tuple(_unit_vector(rng, n + 1) for n in supports)
            inputs.append(KernelInput(pure, weights, components, KERNEL_Q0SQ[k % len(KERNEL_Q0SQ)]))
        return inputs
    if name == "oracle-check":
        return [int(s) for s in rng.integers(0, 2**31 - 1, list_size)]
    raise ValueError(f"unknown workload {name!r}")


def reduce_argv(alpha: complex, fmt: str, out: str, cutoff: int = REDUCE_CUTOFF) -> list[str]:
    # --alpha=... keeps argparse from reading a negative real part as a flag
    return [
        "reduce",
        f"--alpha={alpha.real!r},{alpha.imag!r}",
        "--q0sq",
        REDUCE_GRID,
        "--cutoff",
        str(cutoff),
        "--format",
        fmt,
        "--out",
        out,
    ]


def oracle_argv(seed: int, out: str, max_n: int = ORACLE_MAX_N) -> list[str]:
    return ["oracle-check", "--max-n", str(max_n), "--seed", str(seed), "--out", out]


def prepare(name: str, inp: Input, pv):
    """Turn one input into the arguments of its operation (done outside the timer)."""
    if name == "kernel":
        psi = pv.FockVector(inp.pure)
        mixture = pv.Mixture(inp.weights, tuple(pv.FockVector(c) for c in inp.components))
        return psi, mixture, inp.q0sq
    return inp


def run_op(name: str, prepared, out: str, pv) -> dict:
    """Execute one operation.  CLI workloads write ``out``; kernel returns matrices."""
    if name == "kernel":
        psi, mixture, q0sq = prepared
        split = pv.ModeSplit.from_q0sq(q0sq)
        pure = pv.reduction.reduce_pure_general(psi, split)
        mixed = pv.reduction.reduce_mixed(mixture, split)
        return {"pure": pure.rho0.elems, "mixed": mixed.rho0.elems}
    if name == "oracle-check":
        return {"code": pv.cli.main(oracle_argv(prepared, out))}
    return {"code": pv.cli.main(reduce_argv(prepared, "json", out))}
