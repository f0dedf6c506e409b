"""One property over the argv of all five subcommands: small sizes, extreme values.

Every argv is well formed for argparse (each flag takes its value as
``--flag=value``, so a value such as ``-inf`` is not read as a flag); what
the values say is up to the program.  Half the examples draw every value
from what its flag or field accepts, edges included; the other half put
any float (±0, subnormals, ±1e308, NaN, ±inf) in a quarter of the places.
Each example runs ``cli.main`` in this process with stdout, stderr and
warnings captured.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probeview import validate_density_matrix
from probeview.cli import main

COMMANDS = ("reduce", "sweep-purity", "sweep-thermal", "oracle-check", "profile-overlap")
PROFILE = "{profile}"  # stands for the path of the profile file the example writes

EXTREMES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-10, 0.5, 1.0, 2.0, -1.0,
    1e154, 1e200, 1e308, -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
)
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats())
UNIT = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 1e-6, 0.5, 1.0 - 2**-53, 1.0)), st.floats(0.0, 1.0)
)
STEP = st.one_of(st.sampled_from((5e-324, 1e-300, 1e-6, 0.1, 0.25)), st.floats(1e-3, 0.5))
POSITIVE = st.one_of(st.sampled_from((5e-324, 1e-300, 1.0, 1e154, 1e308)), st.floats(1e-3, 1e3))


def _accepted(values):
    return values


def _hostile(values):
    """Accepted values three times in four, any float otherwise."""
    return st.one_of(values, values, values, FLOATS)


def _text(value: float) -> str:
    return repr(float(value))


@st.composite
def grids(draw, value, values):
    """A single value or start:stop:step of at most 5 points, sometimes malformed."""
    kind = draw(st.sampled_from(("single",) * 3 + ("range",) * 4 + ("malformed",)))
    if kind == "single":
        return _text(draw(value(values)))
    if kind == "malformed":
        return draw(st.sampled_from(("", "1:2", "0:1:0.5:1", "a:b:c", "0.5,0.7")))
    start, step, count = draw(value(values)), draw(value(STEP)), draw(st.integers(0, 4))
    if values is UNIT and 0.0 <= start <= 1.0 and step > 0.0:  # keep the stop inside [0, 1]
        count = int(min(count, (1.0 - start) / step))
    stop = start + count * step if step == step else start
    return ":".join(map(_text, (start, stop, step)))


def _scaled(values: list[float], norm: float) -> list[float]:
    return [v / norm for v in values] if 0.0 < norm < math.inf else values


@st.composite
def leaf_descriptors(draw, value):
    family = draw(st.sampled_from(("number", "coherent", "custom", "thermal", "exotic")))
    if family == "number":
        return {"family": family, "n": draw(value(st.integers(0, 30)))}
    if family == "coherent":
        part = value(st.floats(-3.0, 3.0))
        alpha = draw(st.one_of(part, st.fixed_dictionaries({"re": part, "im": part})))
        return {"family": family, "alpha": alpha}
    if family == "custom":
        parts = draw(st.lists(value(st.floats(-1.0, 1.0)), min_size=2, max_size=12))
        parts = parts[: len(parts) // 2 * 2]
        if draw(st.booleans()):
            with np.errstate(all="ignore"):
                parts = _scaled(parts, float(np.linalg.norm(parts)))
        return {"family": family, "coeffs": [parts[k : k + 2] for k in range(0, len(parts), 2)]}
    if family == "thermal":
        descriptor = {"family": family, "betaE": draw(value(st.floats(1.0, 1e308)))}
        if draw(st.booleans()):
            descriptor["energy"] = draw(value(POSITIVE))
        return descriptor
    return {"family": family}


@st.composite
def descriptors(draw, value):
    """A leaf, or a mixture of leaves: nested one level deep."""
    if draw(st.booleans()):
        return draw(leaf_descriptors(value))
    states = draw(st.lists(leaf_descriptors(value), min_size=0, max_size=3))
    count = len(states) + draw(st.sampled_from((0, 0, 0, 1)))
    weights = draw(st.lists(value(st.floats(0.0, 1.0)), min_size=count, max_size=count))
    if draw(st.booleans()):
        weights = _scaled(weights, math.fsum(weights) if all(map(math.isfinite, weights)) else 0.0)
    return {"family": "mixture", "weights": weights, "states": states}


@st.composite
def commands(draw):
    """(argv, profile rows or None) for one of the five subcommands."""
    hostile = draw(st.booleans())
    value = _hostile if hostile else _accepted
    max_n = "--max-n=%d" % draw(st.integers(-1 if hostile else 1, 4))
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--format=" + draw(st.sampled_from(("json", "csv")))]
    profile = None
    if command == "reduce":
        if draw(st.booleans()):
            argv.append("--state=" + json.dumps(draw(descriptors(value))))
        else:
            parts = draw(st.lists(value(st.floats(-3.0, 3.0)), min_size=1, max_size=2))
            argv.append("--alpha=" + ",".join(map(_text, parts)))
        argv.append("--q0sq=" + draw(grids(value, UNIT)))
        argv.append("--cutoff=%d" % draw(st.integers(0 if hostile else 1, 24)))
        if draw(st.booleans()):
            argv.append("--tol=" + _text(draw(value(st.floats(1e-300, 1e-2)))))
    elif command == "sweep-purity":
        argv += [max_n, "--q0sq=" + draw(grids(value, UNIT))]
    elif command == "sweep-thermal":
        argv.append("--q0sq=" + draw(grids(value, UNIT)))
        argv.append("--inv-betae=" + draw(grids(value, POSITIVE)))
    elif command == "oracle-check":
        argv += [max_n, "--q0sq=" + draw(grids(value, UNIT))]
        argv.append("--seed=%d" % draw(st.integers(0, 50)))
        if draw(st.booleans()):
            argv.append("--tol=" + _text(draw(value(st.floats(1e-300, 1e-2)))))
    else:
        argv.append("--profile=" + PROFILE)
        if draw(st.booleans()):
            ends = sorted(draw(st.lists(value(st.floats(-10.0, 10.0)), min_size=2, max_size=2)))
            argv.append("--region=%s:%s" % tuple(map(_text, ends)))
        values = draw(st.lists(value(st.floats(-2.0, 2.0)), min_size=0, max_size=6))
        size = len(values)
        gaps = draw(st.lists(value(st.floats(0.01, 10.0)), min_size=size, max_size=size))
        positions = itertools.accumulate([draw(value(st.floats(-10.0, 10.0)))] + gaps[1:])
        profile = list(zip(positions, values))
    return argv, profile


def _run(argv: list[str], profile):
    """main(argv) with the profile written to a temporary file: (code, out, err, warnings)."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "profile.txt")
        if profile is not None:
            with open(path, "w") as handle:
                handle.writelines("%r %r\n" % row for row in profile)
        argv = [arg.replace(PROFILE, path) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _matrices(payload):
    """Every rho0 of a reduce payload, single or per grid point."""
    entries = payload.get("results", [payload]) if payload.get("command") == "reduce" else []
    return [np.array([[c["re"] + 1j * c["im"] for c in row] for row in e["rho0"]]) for e in entries]


HUGE_WEIGHTS = (
    '--state={"family":"mixture","weights":[1e308,1e308],'
    '"states":[{"family":"number","n":1},{"family":"number","n":0}]}'
)
HUGE_VALUES = [(0.0, 1e200), (1.0, 1e200), (2.0, 1e200)]


@settings(max_examples=800, deadline=2000)
@given(commands())
@example((["reduce", "--format=json", HUGE_WEIGHTS, "--q0sq=0.5"], None))
@example((["profile-overlap", "--format=json", "--profile=" + PROFILE], HUGE_VALUES))
def test_every_argv_exits_cleanly(case):
    argv, profile = case
    code, out, err, caught = _run(argv, profile)
    assert code in (0, 2, 3, 4)
    assert caught == []  # a warning would reach stderr in a real run
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    if code == 0:
        if "--format=json" in argv:
            for rho in _matrices(json.loads(out)):
                assert validate_density_matrix(rho) == []
        else:
            assert out.endswith("\n")
