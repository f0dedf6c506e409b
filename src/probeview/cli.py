"""Command-line front end: reductions, sweeps, oracle checks, profile overlap.

The CLI parses, calls and renders: a command checks its flags' bounds, calls
the library (reduction.reduce_state, analysis.oracle_check) and renders the
result.  Output is deterministic: floats are always rendered with %.17g
(exact round-trip), mappings keep insertion order, and identical flags yield
byte-identical bytes.  A matrix's elements are formatted once per distinct
magnitude, with the sign prefixed, since %.17g is sign-symmetric.  The whole
output is rendered as a list of pieces, about one per matrix, before the
output is opened; the pieces are then written one by one, never joined into
one string.  Exit codes: 0 success, 2 validation error, 3 oracle
disagreement, 4 file I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import RANDOM_STATE_COUNT, oracle_check, purity, purity_sweep, thermal_sweep
from .fock import (
    Coherent,
    FockVector,
    Mixture,
    ModeSplit,
    Number,
    StateFamily,
    Thermal,
    TruncationError,
    TruncationPolicy,
    ValidationError,
    materialize,
    number_expectation,
    overlap_from_profile,
)
# benchmarks/ reads probeview.cli.reduce_pure_general; cli.py itself calls only reduce_state
from .reduction import reduce_pure_general, reduce_state

__all__ = ["main"]

# far above every grid of the golden entries, the benchmark and the defaults (at most 100 points)
_MAX_GRID_POINTS = 100_000
# bytes of oracle-check's two-mode stack: --max-n 24 needs 1.25 MB, and 132 is the largest
# --max-n accepted (66 MB; a whole run at 132 peaks near 470 MB)
_MAX_ORACLE_BYTES = 2**26
# bytes of one reduced matrix of reduce, 16*(cutoff+1)**2: the benchmark's --cutoff 128 needs
# 266 KB, and 2047 is the largest --cutoff accepted
_MAX_MATRIX_BYTES = 2**26
# sweep-purity forms two (n+1) x (n+1) float arrays, 16*(n+1)**2 bytes, per (n, q0sq) point
# to keep the bits of purity of the reduced matrix, so its time per grid point grows as
# max_n**3; bounding those bytes at the largest n keeps --max-n at 255 and the default sweep
# near 1 s
_MAX_SWEEP_MATRIX_BYTES = 2**20


def _fmt_float(value: float) -> str:
    """Fixed 17-significant-digit rendering; adding 0.0 collapses signed zero."""
    return "%.17g" % (float(value) + 0.0)


def _fmt_floats(values: np.ndarray) -> list[str]:
    """_fmt_float of every element in C order, formatting each distinct magnitude once.

    %.17g is sign-symmetric, so a negative element is "-" before the text of
    its magnitude; Hermitian matrices repeat most magnitudes.  Adding 0.0
    turns -0.0 into 0.0, which prints as "0"; NaN has no sign and prints
    as "nan", and -inf as "-inf".
    """
    flat = np.ravel(values) + 0.0
    magnitudes, inverse = np.unique(np.abs(flat), return_inverse=True)
    texts = np.array(["%.17g" % v for v in magnitudes.tolist()], dtype=object)[inverse]
    negative = flat < 0.0
    texts[negative] = "-" + texts[negative]
    return texts.tolist()


def _complex_cells(elems: np.ndarray) -> tuple[str, ...]:
    """Formatted (re, im) of every element, interleaved in C order."""
    return tuple(_fmt_floats(np.stack([elems.real, elems.imag], axis=-1)))


def _json_scalar(value) -> Optional[str]:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    return None


def _render_matrix(elems: np.ndarray, indent: int) -> str:
    """A complex matrix as rows of {"re": a, "im": b} objects, one per line."""
    pad = " " * indent
    inner = " " * (indent + 2)
    cell = " " * (indent + 4) + '{"re": %s, "im": %s}'
    rows, cols = elems.shape
    row = inner + "[\n" + ",\n".join([cell] * cols) + "\n" + inner + "]"
    return ("[\n" + ",\n".join([row] * rows) + "\n" + pad + "]") % _complex_cells(elems)


def _render_json(value, pieces: list[str], indent: int = 0) -> None:
    """Append deterministic pretty JSON with %.17g floats to pieces; no external state.

    A matrix is one piece, its elements formatted once per distinct
    magnitude; the brackets, keys and separators around it are small pieces
    of their own, so no piece holds the whole document.  main writes the
    pieces only after the whole document is rendered.
    """
    if isinstance(value, np.ndarray):
        pieces.append(_render_matrix(value, indent))
        return
    scalar = _json_scalar(value)
    if scalar is not None:
        pieces.append(scalar)
        return
    if isinstance(value, dict):
        keys = [json.dumps(str(k)) + ": " for k in value]
        items = list(value.values())
        opening, closing = "{", "}"
        inline = len(items) <= 4
    elif isinstance(value, (list, tuple)):
        keys = [""] * len(value)
        items = list(value)
        opening, closing = "[", "]"
        inline = True
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__}")
    scalars = [_json_scalar(v) for v in items]
    if inline and None not in scalars:
        pieces.append(opening + ", ".join(k + v for k, v in zip(keys, scalars)) + closing)
        return
    inner = " " * (indent + 2)
    pieces.append(opening)
    for position, (key, item) in enumerate(zip(keys, items)):
        pieces.append((",\n" if position else "\n") + inner + key)
        _render_json(item, pieces, indent + 2)
    pieces.append("\n" + " " * indent + closing)


def _csv_row(values) -> str:
    return ",".join(v if isinstance(v, str) else _json_scalar(v) for v in values)


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    """A single float or an inclusive range 'start:stop:step'."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"{flag} expects a number or start:stop:step, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValidationError(f"{flag} values must be finite")
    if step <= 0.0 or stop < start:
        raise ValidationError(f"{flag} needs step > 0 and stop >= start")
    span = (stop - start) / step  # inf when stop - start overflows
    points = math.floor(span + 1e-6) + 1 if math.isfinite(span) else math.inf
    if points > _MAX_GRID_POINTS:
        raise ValidationError(
            f"{flag} {text} gives {points:.6g} points; the limit is {_MAX_GRID_POINTS}"
        )
    values = [start + k * step for k in range(points)]
    if abs(values[-1] - stop) <= 1e-9 * max(1.0, abs(stop)):
        values[-1] = stop
    return tuple(values)


def _check_bytes(flag: str, value: int, implied: int, limit: int, what: str) -> None:
    """Reject a size flag whose implied bytes, named by what, would exceed limit."""
    if implied > limit:
        raise ValidationError(
            f"{flag} {value} implies {implied} bytes for {what}; the limit is {limit} bytes"
        )


def _parse_q0sq(text: str) -> tuple[float, ...]:
    grid = _parse_grid(text, "--q0sq")
    if any(not 0.0 <= q <= 1.0 for q in grid):
        raise ValidationError("q0sq values must lie in [0, 1]")
    return grid


def _check_tol(tol: float) -> float:
    if not 0.0 < tol <= 1e-2:
        raise ValidationError(f"tol must lie in (0, 1e-2], got {tol!r}")
    return tol


def _parse_alpha(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValidationError(f"--alpha expects 're' or 're,im', got {text!r}")


def _number_from(obj: dict, key: str, descriptor: str) -> float:
    value = obj.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{descriptor} descriptor needs numeric {key!r}")
    return float(value)


def _alpha_from(obj: dict) -> complex:
    raw = obj.get("alpha")
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return complex(float(raw), 0.0)
    if isinstance(raw, dict):
        re = raw.get("re", 0.0)
        im = raw.get("im", 0.0)
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            return complex(float(re), float(im))
    raise ValidationError('coherent descriptor needs "alpha" as {"re": x, "im": y} or a number')


def _coeffs_from(obj: dict) -> FockVector:
    raw = obj.get("coeffs")
    if not isinstance(raw, list) or not raw:
        raise ValidationError('custom descriptor needs a nonempty "coeffs" list of [re, im] pairs')
    amplitudes = []
    for entry in raw:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
        ):
            raise ValidationError("each custom coefficient must be a [re, im] pair")
        amplitudes.append(complex(float(entry[0]), float(entry[1])))
    return FockVector(np.array(amplitudes))


def _family_from_descriptor(obj, policy: TruncationPolicy, pure_only: bool = False) -> StateFamily:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValidationError('state descriptor must be an object with a "family" key')
    family = obj["family"]
    if family == "number":
        n = obj.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValidationError('number descriptor needs a nonnegative integer "n"')
        return Number(n)
    if family == "coherent":
        return Coherent(_alpha_from(obj))
    if family == "custom":
        return _coeffs_from(obj)
    if pure_only:
        raise ValidationError(f"mixture components must be pure states, got {family!r}")
    if family == "thermal":
        beta_energy = _number_from(obj, "betaE", "thermal")
        # "energy" is checked for older descriptor files; the state depends on betaE alone
        energy = _number_from(obj, "energy", "thermal") if "energy" in obj else 1.0
        if not (0.0 < beta_energy < math.inf and 0.0 < energy < math.inf):
            raise ValidationError("thermal descriptor needs finite betaE > 0 and energy > 0")
        return Thermal(beta_energy)
    if family == "mixture":
        weights = obj.get("weights")
        states = obj.get("states")
        if not isinstance(weights, list) or not isinstance(states, list):
            raise ValidationError('mixture descriptor needs "weights" and "states" lists')
        if any(isinstance(w, bool) or not isinstance(w, (int, float)) for w in weights):
            raise ValidationError("mixture weights must be numbers")
        members = []
        for entry in states:
            component = _family_from_descriptor(entry, policy, pure_only=True)
            members.append(materialize(component, policy).state)
        return Mixture(tuple(float(w) for w in weights), tuple(members))
    raise ValidationError(f"unknown state family {family!r}")


def _parse_state(text: str, policy: TruncationPolicy) -> StateFamily:
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed state descriptor: {exc}") from None
    return _family_from_descriptor(obj, policy)


def _csv_matrix_rows(q0sq: float, elems: np.ndarray) -> str:
    """The q0sq,i,j,re,im rows of one matrix, joined by newlines."""
    q = _fmt_float(q0sq)
    dim = elems.shape[0]
    index = [f"{i},{j},%s,%s" for i in range(dim) for j in range(dim)]
    return (f"{q}," + f"\n{q},".join(index)) % _complex_cells(elems)


def _cmd_reduce(args: argparse.Namespace):
    grid = _parse_q0sq(args.q0sq)
    # one policy for every materialization of the run, mixture components included
    policy = TruncationPolicy(args.cutoff, tail_tol=_check_tol(args.tol))
    implied = 16 * (args.cutoff + 1) ** 2
    _check_bytes("--cutoff", args.cutoff, implied, _MAX_MATRIX_BYTES, "one reduced matrix")
    if args.alpha is not None:
        family = Coherent(_parse_alpha(args.alpha))
    else:
        family = _parse_state(args.state, policy)
    results = []
    for q0sq in grid:
        rho = reduce_state(family, ModeSplit(q0sq), policy)
        results.append(
            {
                "q0sq": q0sq,
                "dim": rho.dim,
                "rho0": rho.elems,
                "purity": purity(rho),
                "mean_occupation": number_expectation(rho),
            }
        )
    if args.format == "json":
        payload = {"command": "reduce", "cutoff": args.cutoff}
        if len(results) == 1:
            payload.update(results[0])
        else:
            payload["results"] = results
        return payload, None, 0
    lines = [f"# command = reduce", f"# cutoff = {args.cutoff}", "q0sq,i,j,re,im"]
    lines.extend(_csv_matrix_rows(entry["q0sq"], entry["rho0"]) for entry in results)
    for entry in results:
        lines.append(
            "# q0sq = {} dim = {} purity = {} mean_occupation = {}".format(
                _fmt_float(entry["q0sq"]),
                entry["dim"],
                _fmt_float(entry["purity"]),
                _fmt_float(entry["mean_occupation"]),
            )
        )
    return None, lines, 0


def _sweep_payload(command: str, sweep):
    payload = {
        "command": command,
        "schema": list(sweep.schema),
        "rows": [list(row) for row in sweep.rows],
    }
    lines = [f"# command = {command}", ",".join(sweep.schema)]
    lines.extend(_csv_row(row) for row in sweep.rows)
    return payload, lines, 0


def _cmd_sweep_purity(args: argparse.Namespace):
    grid = _parse_q0sq(args.q0sq)
    if args.max_n < 1:
        raise ValidationError(f"--max-n must be >= 1, got {args.max_n}")
    implied = 16 * (args.max_n + 1) ** 2
    _check_bytes("--max-n", args.max_n, implied, _MAX_SWEEP_MATRIX_BYTES, "the float arrays of one purity")
    sweep = purity_sweep(range(1, args.max_n + 1), grid)
    return _sweep_payload("sweep-purity", sweep)


def _cmd_sweep_thermal(args: argparse.Namespace):
    grid = _parse_q0sq(args.q0sq)
    inv_betae = _parse_grid(args.inv_betae, "--inv-betae")
    if any(v <= 0.0 for v in inv_betae):
        raise ValidationError("--inv-betae values must be positive")
    betae_grid = [1.0 / v for v in inv_betae]
    if not all(map(math.isfinite, betae_grid)):
        raise ValidationError("--inv-betae values must have a finite reciprocal (betaE = 1/value)")
    sweep = thermal_sweep(grid, betae_grid)
    return _sweep_payload("sweep-thermal", sweep)


def _cmd_oracle_check(args: argparse.Namespace):
    """analysis.oracle_check; a --max-n past _MAX_ORACLE_BYTES is rejected before it runs."""
    grid = _parse_q0sq(args.q0sq)
    tol = _check_tol(args.tol)
    max_n, seed = args.max_n, args.seed
    if max_n < 1:
        raise ValidationError(f"--max-n must be >= 1, got {max_n}")
    if seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")
    implied = 16 * (max_n + 1 + RANDOM_STATE_COUNT) * (max_n + 1) ** 2
    _check_bytes("--max-n", max_n, implied, _MAX_ORACLE_BYTES, "the two-mode expansion")
    rows = oracle_check(max_n, seed, grid)
    disagrees = any(max_abs_diff > tol for _, _, max_abs_diff in rows)
    status = "disagreement" if disagrees else "ok"
    payload = {
        "command": "oracle-check",
        "max_n": max_n,
        "seed": seed,
        "tolerance": tol,
        "checks": [{"name": name, "cases": cases, "max_abs_diff": diff} for name, cases, diff in rows],
        "status": status,
    }
    lines = [
        "# command = oracle-check",
        f"# max_n = {max_n}",
        f"# seed = {seed}",
        f"# tolerance = {_fmt_float(tol)}",
        f"# status = {status}",
        "check,cases,max_abs_diff",
    ]
    lines.extend(_csv_row(row) for row in rows)
    return payload, lines, 3 if disagrees else 0


def _cmd_profile_overlap(args: argparse.Namespace):
    profile, region_text = args.profile, args.region
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty files warn before the shape check rejects them
            table = np.loadtxt(profile, comments="#", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"malformed profile file {profile!r}: {exc}") from None
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise ValidationError("profile file needs two columns: position value")
    if region_text is None:
        region = (float(table[0, 0]), float(table[-1, 0]))
    else:
        parts = region_text.split(":")
        if len(parts) != 2:
            raise ValidationError(f"--region expects 'a:b', got {region_text!r}")
        try:
            region = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValidationError(f"--region expects numbers, got {region_text!r}") from None
    q0sq = overlap_from_profile(table, region)
    payload = {
        "command": "profile-overlap",
        "profile": profile,
        "region": [region[0], region[1]],
        "q0sq": q0sq,
    }
    lines = [
        "# command = profile-overlap",
        f"# profile = {profile}",
        f"# region = {_fmt_float(region[0])} {_fmt_float(region[1])}",
        "q0sq",
        _fmt_float(q0sq),
    ]
    return payload, lines, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probeview",
        description="Reduced density matrices of bosonic states restricted to a region.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default="-", help="output path, or - for standard output")

    p_reduce = sub.add_parser("reduce", help="reduce a state to the region")
    group = p_reduce.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="JSON state descriptor, or @file")
    group.add_argument("--alpha", help="coherent amplitude shorthand: re or re,im")
    p_reduce.add_argument("--q0sq", required=True, help="region overlap: x or start:stop:step")
    p_reduce.add_argument("--cutoff", type=int, default=64)
    p_reduce.add_argument("--tol", type=float, default=1e-10)
    add_common(p_reduce)

    p_purity = sub.add_parser("sweep-purity", help="purity of reduced number states")
    p_purity.add_argument("--max-n", type=int, default=5)
    p_purity.add_argument("--q0sq", default="0:1:0.05", help="grid: x or start:stop:step")
    add_common(p_purity)

    p_thermal = sub.add_parser("sweep-thermal", help="temperature map of reduced thermal states")
    p_thermal.add_argument("--q0sq", default="0.25:1:0.25", help="grid: x or start:stop:step")
    p_thermal.add_argument(
        "--inv-betae", default="0.1:10:0.1", help="normalized temperature grid 1/(beta E)"
    )
    add_common(p_thermal)

    p_oracle = sub.add_parser("oracle-check", help="closed forms vs brute-force two-mode oracle")
    p_oracle.add_argument("--max-n", type=int, default=6)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--q0sq", default="0:1:0.1", help="grid: x or start:stop:step")
    p_oracle.add_argument("--tol", type=float, default=1e-10)
    add_common(p_oracle)

    p_profile = sub.add_parser("profile-overlap", help="q0^2 of a sampled 1-D profile")
    p_profile.add_argument("--profile", required=True, help="two-column position/value file")
    p_profile.add_argument("--region", default=None, help="integration interval a:b")
    add_common(p_profile)
    return parser


_COMMANDS = {
    "reduce": _cmd_reduce,
    "sweep-purity": _cmd_sweep_purity,
    "sweep-thermal": _cmd_sweep_thermal,
    "oracle-check": _cmd_oracle_check,
    "profile-overlap": _cmd_profile_overlap,
}


def _write_output(pieces: list[str], path: str) -> None:
    """Write the rendered pieces in order, each encoded on its own."""
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", newline="") as handle:
            handle.writelines(pieces)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # (JSON payload, CSV lines, exit code); reduce builds only the one its format needs
        payload, csv_lines, code = _COMMANDS[args.command](args)
        if args.format == "json":
            pieces: list[str] = []
            _render_json(payload, pieces)
            pieces.append("\n")
        else:
            pieces = [piece for line in csv_lines for piece in (line, "\n")]
        _write_output(pieces, args.out)
    except (ValidationError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return code
