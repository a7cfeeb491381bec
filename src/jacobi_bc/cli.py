"""Command-line interface for scripted experiments.

This module owns every file format of the package: it decodes the JSON
input files and encodes results as JSON or CSV, and the library returns
plain arrays and result objects.  One table, ``_COMMANDS``, gives each
command its handler, the options it reads, its most ``--input`` files
and its help; any other option or input exits 2.  A handler composes
library calls on the parsed arguments and returns two producers, one of
the JSON payload and one of the CSV rows; the writer calls only the one
of the requested format, so ``simulate --format csv`` streams its rows
beside the one field.  Outputs are deterministic: identical invocations
produce byte-identical files.  A result number float64 cannot hold is
null in JSON and inf, -inf or nan in CSV, and the command still exits 0.

Exit codes: 0 success, 2 validation failure (malformed input, data that
fails a positivity characterization, values the precision mode cannot
hold, a ``simulate`` request larger than physical memory, refused before
solving), 1 internal error.  Failures write a machine-readable JSON
object to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

import numpy as np

from .core import (
    JacobiBCError,
    JacobiCoefficients,
    PrecisionMode,
    _finite_reals,
    sequence_values,
    validate_coefficients,
)
from . import connecting as connecting_mod
from . import debranges
from . import determinacy
from . import dynamics
from . import inverse
from . import moments as moments_mod
from ._multiprec import _float64

__all__ = ["main"]

SCHEMA_TAG = "jacobi-bc/1"

# `simulate --format json` holds its payload beside the field: each cell
# becomes a float (24 bytes) in a list slot (8 bytes), plus the lists'
# over-allocation, under 40 bytes a cell.  CSV streams one row at a time.
_PAYLOAD_CELL_BYTES = 40


class CliInputError(Exception):
    """Malformed or inconsistent command input (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """Turns a malformed command line into CliInputError (subparsers too)."""

    def error(self, message):
        raise CliInputError(message)


# Result numbers leave the package through these two conversions only: a
# value beyond float64 (an overflowed float, or an mpf, Fraction or int too
# large for it) is null in JSON, which has no infinities or NaN, and inf,
# -inf or nan in CSV.


def _json_number(x) -> float | None:
    """x as a float, or None (JSON null) where float64 cannot hold it."""
    return None if x is None else _json_numbers([x])[0]


def _json_numbers(values) -> list:
    """``_json_number`` of each value, converted at once (``_float64``)."""
    arr = _float64(sequence_values(values))
    out = arr.tolist()
    for i in np.flatnonzero(~np.isfinite(arr)).tolist():
        out[i] = None
    return out


def _csv_number(x) -> str:
    """x formatted as a float with 17 significant digits (inf, -inf or
    nan beyond float64)."""
    return format(_float64(x), ".17g")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read input file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliInputError(f"{path}: expected a JSON object")
    return obj


def _coefficients(obj: dict, path: str) -> JacobiCoefficients:
    gen = obj.get("generator")
    if not gen:
        if "a" not in obj:
            raise CliInputError(
                f"{path}: expected a coefficient file with keys a/b/generator")
        a, b = _number_list(obj, "a", path), _number_list(obj, "b", path)
    try:
        coeffs = (_generator(gen) if gen
                  else JacobiCoefficients.from_arrays(a, b))
        report = validate_coefficients(coeffs)
    except (ValueError, KeyError, TypeError, AttributeError,
            ArithmeticError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    if not report.valid:
        raise CliInputError(f"{path}: invalid coefficients: "
                            + "; ".join(report.issues))
    return coeffs


def _generator(gen) -> JacobiCoefficients:
    """The family of a ``{"kind": ..., "params": {...}}`` generator entry."""
    kind = gen.get("kind")
    params = gen.get("params") or {}
    if kind == "free":
        return JacobiCoefficients.free()
    if kind == "geometric":
        ratio = params.get("ratio", 2)
        if not _finite_reals([ratio]):
            raise ValueError(
                f"geometric ratio must be a real number, got {ratio!r}")
        if isinstance(ratio, float) and ratio.is_integer():
            ratio = int(ratio)
        return JacobiCoefficients.geometric(ratio)
    raise ValueError(f"unknown coefficient generator kind: {kind!r}")


def _number_list(obj, key: str, path: str) -> list:
    vals = obj.get(key)
    if not isinstance(vals, list) or not vals or not _finite_reals(vals):
        raise CliInputError(
            f"{path}: {key!r} must be a non-empty list of finite numbers")
    return vals


def _required(args, flag: str) -> int:
    value = getattr(args, _OPTIONS[flag]["dest"])
    if value is None:
        raise CliInputError(f"command {args.command!r} requires {flag}")
    return value


def _primary_input(args) -> dict:
    if not args.input:
        raise CliInputError(f"command {args.command!r} requires --input")
    return _load_json(args.input[0])


def _primary_coefficients(args) -> JacobiCoefficients:
    return _coefficients(_primary_input(args), args.input[0])


def _sequence_input(args):
    """The first input file, read once, with its 'response' or 'moments'
    entry: (obj, key, values), key and values None when it has neither."""
    obj = _primary_input(args)
    for key in ("response", "moments"):
        if key in obj:
            return obj, key, _number_list(obj, key, args.input[0])
    return obj, None, None


def _complex_from(pair, path: str) -> complex:
    if _finite_reals([pair]):
        return complex(pair)
    if isinstance(pair, list) and len(pair) == 2 and _finite_reals(pair):
        return complex(pair[0], pair[1])
    raise CliInputError(f"{path}: points must be finite numbers or [re, im] pairs")


def _grid_output(args, horizon: int, keys: tuple, default_points, evaluate):
    """Payload and CSV producer of ``evaluate(*point)`` at the 'points' of
    the second input file, else at ``default_points``.  An entry holds the
    real and imaginary parts of each coordinate (named by ``keys``) and of
    the value; the CSV columns are the entry keys."""
    points = default_points
    if len(args.input) > 1:
        path = args.input[1]
        raw = _load_json(path).get("points")
        if not isinstance(raw, list) or not raw or \
                not all(isinstance(p, dict) for p in raw):
            raise CliInputError(f"{path}: expected a 'points' list of objects")
        points = [tuple(_complex_from(p.get(k), path) for k in keys)
                  for p in raw]
    entries = []
    for point in points:
        entry = {}
        for key, x in zip(keys + ("value",), point + (evaluate(*point),)):
            x = complex(x)
            entry.update({f"re_{key}": x.real, f"im_{key}": x.imag})
        entries.append(entry)
    return (lambda: {"horizon": horizon, "values": [
                {k: _json_number(v) for k, v in e.items()} for e in entries]},
            lambda: [list(entries[0])] + [
                [_csv_number(v) for v in e.values()] for e in entries])


def _series_rows(index: str, label: str, values):
    """CSV producer of a numbered series: a header, then (i, value) rows."""
    return lambda: [[index, label]] + [[str(i), _csv_number(v)]
                                       for i, v in enumerate(values)]


# -- command handlers: each returns its JSON and CSV producers ------------


def _cmd_simulate(args):
    coeffs = _primary_coefficients(args)
    horizon = _required(args, "--T")
    if len(args.input) > 1:
        path = args.input[1]
        control = _number_list(_load_json(path), "control", path)
        if len(control) > horizon:
            raise CliInputError(f"{path}: 'control' has {len(control)} "
                                f"entries, more than --T {horizon}")
    else:
        control = [1]  # the solvers zero-extend it to the horizon
    n_space = coeffs.size if coeffs.is_finite else horizon
    dynamics._check_field_memory(
        n_space, horizon, args.precision,
        _PAYLOAD_CELL_BYTES if args.fmt == "json" else 0)
    if coeffs.is_finite:
        field = dynamics.solve_finite(coeffs, n_space, control, horizon,
                                      args.precision)
        system = "finite"
    else:
        field = dynamics.solve_semi_infinite(coeffs, control, horizon,
                                             args.precision)
        system = "semi-infinite"

    def payload():
        return {"system": system, "n_space": field.n_space,
                "horizon": horizon, "time_start": -1,
                "rows": [_json_numbers(row) for row in field.values]}

    def rows():
        """Rows = space index, columns = time from -1 to horizon, one
        row at a time."""
        yield ["n\\t"] + [str(t) for t in range(-1, horizon + 1)]
        for n, row in enumerate(field.values):
            yield [str(n)] + [_csv_number(v) for v in row]

    return payload, rows


def _cmd_response(args):
    coeffs = _primary_coefficients(args)
    horizon = _required(args, "--T")
    r = dynamics.response_vector(coeffs, horizon, args.precision)
    return (lambda: {"length": horizon, "response": _json_numbers(r)},
            _series_rows("t", "r_t", r))


def _cmd_connect(args):
    obj, key, values = _sequence_input(args)
    size = (args.horizon or (len(values) + 1) // 2) if key else None
    if key == "response":
        conn = connecting_mod.connecting_from_response(values, size,
                                                       args.precision)
    elif key == "moments":
        conn = connecting_mod.connecting_from_hankel(
            moments_mod.build_hankel(values, size, args.precision), size,
            args.precision)
    else:
        conn = connecting_mod.gram_from_control(
            _coefficients(obj, args.input[0]), _required(args, "--T"),
            args.precision)
    return (lambda: {"size": conn.size, "orientation": "corner-top",
                     "matrix": [_json_numbers(row) for row in conn.matrix]},
            lambda: [["orientation", "corner-top"]] + [
                [_csv_number(v) for v in row] for row in conn.matrix])


def _cmd_recover(args):
    _, key, values = _sequence_input(args)
    if key is None:
        raise CliInputError(
            f"{args.input[0]}: expected a 'response' or 'moments' key")
    horizon = args.horizon or (len(values) + 1) // 2
    recover = (inverse.recover_from_response if key == "response"
               else inverse.recover_from_moments)
    result = recover(values, horizon, args.precision)
    a, b = result.a, result.b
    return (lambda: {"a": _json_numbers(a), "b": _json_numbers(b),
                     "residual": _json_number(result.residual),
                     "path": result.path,
                     "precision": result.precision.value},
            lambda: [["k", "a_k", "b_k"]] + [
                [str(k), _csv_number(x), _csv_number(y)]
                for k, (x, y) in enumerate(zip(a, b), 1)])


def _cmd_diagnose(args):
    coeffs = _primary_coefficients(args)
    report = determinacy.classify(coeffs, _required(args, "--N-max"),
                                  args.precision)
    return (lambda: {
        "verdict": report.verdict.value,
        "precision": report.precision.value,
        "lambda_seq": _json_numbers(report.lambda_seq),
        "beta_seq": _json_numbers(report.beta_seq),
        "gamma_seq": _json_numbers(report.gamma_seq),
        "hankel_bound": _json_number(report.hankel_bound),
        "connecting_bound": _json_number(report.connecting_bound),
        "deficiency_p_sums": _json_numbers(report.deficiency_p),
        "deficiency_q_sums": _json_numbers(report.deficiency_q),
        "notes": list(report.notes),
    }, lambda: [["N", "lambda_N", "beta_N", "gamma_N"]] + [
        [str(n), _csv_number(lam), _csv_number(beta), _csv_number(gamma)]
        for n, (lam, beta, gamma) in enumerate(
            zip(report.lambda_seq, report.beta_seq, report.gamma_seq), 1)])


def _cmd_kernel(args):
    coeffs = _primary_coefficients(args)
    horizon = _required(args, "--T")
    grid = [(complex(re, im), complex(lam)) for re in (-2.0, 0.0, 2.0)
            for im in (0.5, 1.5) for lam in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    return _grid_output(
        args, horizon, ("z", "lambda"), grid,
        lambda z, lam: debranges.kernel_finite(coeffs, z, lam, horizon))


def _cmd_hb(args):
    evaluator = debranges.hermite_biehler(_primary_coefficients(args),
                                          _required(args, "--T"))
    grid = [(complex(re, im),) for re in (-2.0, -1.0, 0.0, 1.0, 2.0)
            for im in (0.25, 0.5, 1.0, 2.0, 4.0)]
    return _grid_output(args, evaluator.horizon, ("z",), grid, evaluator)


def _cmd_moments(args):
    _, key, values = _sequence_input(args)
    if key == "response":
        out_key, label, convert = "moments", "s_k", moments_mod.response_to_moments
    elif key == "moments":
        out_key, label, convert = "response", "r_k", moments_mod.moments_to_response
    else:
        raise CliInputError(
            f"{args.input[0]}: expected a 'response' or 'moments' key")
    out = convert(values, args.precision)
    return (lambda: {"direction": f"{key}-to-{out_key}",
                     out_key: _json_numbers(out)},
            _series_rows("k", label, out))


# name -> (handler, the options it reads beside --input, --output and
# --format, the most --input files it takes, help)
_SOLVE = ("--T", "--precision")
_COMMANDS = {
    "simulate": (_cmd_simulate, _SOLVE, 2,
                 "run the forward solver (impulse control by default)"),
    "response": (_cmd_response, _SOLVE, 1, "extract the response vector"),
    "connect": (_cmd_connect, _SOLVE, 1, "build a connecting matrix"),
    "recover": (_cmd_recover, _SOLVE, 1,
                "recover coefficients from a response or moments"),
    "diagnose": (_cmd_diagnose, ("--N-max", "--precision"), 1, "determinacy report"),
    "kernel": (_cmd_kernel, ("--T",), 2,
               "evaluate the reproducing kernel on a grid"),
    "hb": (_cmd_hb, ("--T",), 2,
           "evaluate the Hermite-Biehler function on a grid"),
    "moments": (_cmd_moments, ("--precision",), 1,
                "convert between responses and moments"),
}
_OPTIONS = {
    "--T": dict(dest="horizon", type=int, help="time horizon / block size"),
    "--N-max": dict(dest="n_max", type=int,
                    help="maximum block size for sequence diagnostics"),
    "--precision": dict(choices=["double", "extended", "rational"],
                        help="arithmetic mode (default double, or "
                             "JACOBI_BC_PRECISION)"),
}


def _write_output(args, payload, rows) -> None:
    """Encode the requested format only: the ``payload()`` dict as the
    exact bytes of ``json.dumps(doc, indent=2)`` and a newline (see
    ``_json_chunks``), or the ``rows()``."""
    with (open(args.output, "w", encoding="utf-8", newline="") if args.output
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.fmt == "json":
            fh.writelines(_json_chunks({"schema": SCHEMA_TAG,
                                        "command": args.command,
                                        **payload()}))
            fh.write("\n")
        else:
            csv.writer(fh).writerows(rows())


_SCALARS = frozenset({int, float, bool, type(None)})


def _json_chunks(obj, pad: str = ""):
    """The text of ``json.dumps(obj, indent=2)`` (str keys), in chunks, at
    the nesting whose indent is ``pad``.

    A list of ints, floats, bools and None alone is one chunk: the C
    encoder's ``json.dumps(list)`` with each ", " turned into the newline
    and indent that ``indent=2`` puts between items, since no number or
    null holds ", ".  Other lists and dicts that are not empty recurse,
    and any other value is ``json.dumps`` of it.  So a ``simulate`` field
    is written one row at a time."""
    inner = pad + "  "
    if (isinstance(obj, (list, tuple)) and obj
            and set(map(type, obj)) <= _SCALARS):
        yield ("[\n" + inner
               + json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
               + "\n" + pad + "]")
    elif isinstance(obj, (dict, list, tuple)) and obj:
        keyed = isinstance(obj, dict)
        sep = "{\n" + inner if keyed else "[\n" + inner
        for key, value in obj.items() if keyed else enumerate(obj):
            yield sep + (json.dumps(key) + ": " if keyed else "")
            yield from _json_chunks(value, inner)
            sep = ",\n" + inner
        yield "\n" + pad + ("}" if keyed else "]")
    else:
        yield json.dumps(obj)


def _emit_error(exc: Exception, validation: bool) -> None:
    doc = {"schema": SCHEMA_TAG,
           "error": {"type": type(exc).__name__,
                     "kind": "validation" if validation else "internal",
                     "message": str(exc)}}
    sys.stderr.write(json.dumps(doc, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jacobi-bc",
        description="Boundary-control toolkit for Jacobi matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, options, inputs, doc) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--input", action="append", default=[],
                       help=f"input JSON file (at most {inputs})")
        p.add_argument("--output", default=None, help="output file (default stdout)")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--format", dest="fmt", default="json",
                       choices=["json", "csv"], help="output format")
    return parser


# parsing keeps no state in the parser, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
        handler, options, inputs, _doc = _COMMANDS[args.command]
        if len(args.input) > inputs:
            raise CliInputError(f"command {args.command!r} takes at most "
                                f"{inputs} --input file(s)")
        for flag, value in (("--T", getattr(args, "horizon", None)),
                            ("--N-max", getattr(args, "n_max", None))):
            if value is not None and value < 1:
                raise CliInputError(f"{flag} must be >= 1")
        if "--precision" in options:
            precision = (args.precision
                         or os.environ.get("JACOBI_BC_PRECISION", "double"))
            if precision not in {mode.value for mode in PrecisionMode}:
                raise CliInputError(f"unknown precision {precision!r}; choose "
                                    f"double, extended, or rational")
            args.precision = PrecisionMode(precision)
        _write_output(args, *handler(args))
        return 0
    except (CliInputError, JacobiBCError) as exc:
        _emit_error(exc, validation=True)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error(exc, validation=False)
        return 1


if __name__ == "__main__":
    sys.exit(main())
