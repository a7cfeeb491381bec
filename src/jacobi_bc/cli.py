"""Command-line interface for scripted experiments.

One table, ``_COMMANDS``, gives each command its handler and help text.
A handler composes library calls on the parsed arguments and returns the
JSON payload with a CSV producer; the writer encodes only the requested
format.  Outputs are deterministic: identical invocations produce
byte-identical files.  A result number float64 cannot hold is null in
JSON and inf, -inf or nan in CSV, and the command still exits 0.

Exit codes: 0 success, 2 validation failure (malformed input, data that
fails a positivity characterization, values the precision mode cannot
hold, a ``simulate`` field and payload larger than physical memory,
refused before solving), 1 internal error.  Failures write a
machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from .core import (
    SCHEMA_TAG,
    JacobiBCError,
    JacobiCoefficients,
    PrecisionMode,
    validate_coefficients,
    _csv_number,
    _is_real,
    _json_number,
)
from . import connecting as connecting_mod
from . import debranges
from . import determinacy
from . import dynamics
from . import inverse
from . import moments as moments_mod

__all__ = ["main"]

# `simulate` holds its JSON payload beside the field: WaveField.to_json_dict
# turns each cell into a float (24 bytes) in a list slot (8 bytes), plus
# the lists' over-allocation, under 40 bytes a cell.
_PAYLOAD_CELL_BYTES = 40


class CliInputError(Exception):
    """Malformed or inconsistent command input (exit code 2)."""


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
    if not obj.get("generator"):
        if "a" not in obj:
            raise CliInputError(
                f"{path}: expected a coefficient file with keys a/b/generator")
        _number_list(obj, "a", path)
        _number_list(obj, "b", path)
    try:
        coeffs = JacobiCoefficients.from_json_dict(obj)
        report = validate_coefficients(coeffs)
    except (ValueError, KeyError, TypeError, AttributeError,
            ArithmeticError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    if not report.valid:
        raise CliInputError(f"{path}: invalid coefficients: "
                            + "; ".join(report.issues))
    return coeffs


def _number_list(obj, key: str, path: str) -> list:
    vals = obj.get(key)
    if not isinstance(vals, list) or not vals or not all(map(_is_real, vals)):
        raise CliInputError(
            f"{path}: {key!r} must be a non-empty list of finite numbers")
    return vals


def _require_horizon(args) -> int:
    if args.horizon is None:
        raise CliInputError(f"command {args.command!r} requires --T")
    return args.horizon


def _primary_input(args) -> dict:
    if not args.input:
        raise CliInputError(f"command {args.command!r} requires --input")
    return _load_json(args.input[0])


def _primary_coefficients(args) -> JacobiCoefficients:
    return _coefficients(_primary_input(args), args.input[0])


def _sequence_input(obj: dict, path: str):
    """(key, values) of a 'response' or 'moments' file, else (None, None)."""
    for key in ("response", "moments"):
        if key in obj:
            return key, _number_list(obj, key, path)
    return None, None


def _complex_from(pair, path: str) -> complex:
    if _is_real(pair):
        return complex(pair)
    if isinstance(pair, list) and len(pair) == 2 and all(map(_is_real, pair)):
        return complex(pair[0], pair[1])
    raise CliInputError(f"{path}: points must be finite numbers or [re, im] pairs")


def _points(args, keys: tuple) -> list:
    """Evaluation points of the second input file, one tuple per point."""
    path = args.input[1]
    raw = _load_json(path).get("points")
    if not isinstance(raw, list) or not raw or \
            not all(isinstance(p, dict) for p in raw):
        raise CliInputError(f"{path}: expected a 'points' list of objects")
    return [tuple(_complex_from(p.get(k), path) for k in keys) for p in raw]


def _json_numbers(values) -> list:
    return [_json_number(v) for v in values]


def _series_rows(index: str, label: str, values):
    """CSV producer of a numbered series: a header, then (i, value) rows."""
    return lambda: [[index, label]] + [[str(i), _csv_number(v)]
                                       for i, v in enumerate(values)]


# -- command handlers ----------------------------------------------------
# Each returns the JSON payload and a CSV producer, which the writer calls
# only when CSV is requested.


def _cmd_simulate(args):
    coeffs = _primary_coefficients(args)
    horizon = _require_horizon(args)
    if len(args.input) > 1:
        control = _number_list(_load_json(args.input[1]), "control",
                               args.input[1])
    else:
        control = [1]  # the solvers zero-extend it to the horizon
    n_space = coeffs.size if coeffs.is_finite else horizon
    dynamics._check_field_memory(n_space, horizon, args.precision,
                                 _PAYLOAD_CELL_BYTES)
    if coeffs.is_finite:
        field = dynamics.solve_finite(coeffs, n_space, control, horizon,
                                      args.precision)
        system = "finite"
    else:
        field = dynamics.solve_semi_infinite(coeffs, control, horizon,
                                             args.precision)
        system = "semi-infinite"
    return {"system": system, **field.to_json_dict()}, field.csv_rows


def _cmd_response(args):
    coeffs = _primary_coefficients(args)
    horizon = _require_horizon(args)
    r = dynamics.response_vector(coeffs, horizon, args.precision)
    return ({"length": horizon, "response": _json_numbers(r)},
            _series_rows("t", "r_t", r))


def _connect_from_input(args):
    obj = _primary_input(args)
    path = args.input[0]
    key, values = _sequence_input(obj, path)
    if key is not None:
        size = args.horizon or (len(values) + 1) // 2
        if key == "response":
            return connecting_mod.connecting_from_response(values, size)
        hank = moments_mod.build_hankel(values, size)
        return connecting_mod.connecting_from_hankel(hank, size)
    coeffs = _coefficients(obj, path)
    size = _require_horizon(args)
    return connecting_mod.gram_from_control(coeffs, size, args.precision)


def _cmd_connect(args):
    conn = _connect_from_input(args)
    orientation = conn.orientation.value
    payload = {"size": conn.size, "orientation": orientation,
               "matrix": [_json_numbers(row) for row in conn.matrix]}
    return payload, lambda: [["orientation", orientation]] + [
        [_csv_number(v) for v in row] for row in conn.matrix]


def _cmd_recover(args):
    obj = _primary_input(args)
    path = args.input[0]
    key, values = _sequence_input(obj, path)
    if key is None:
        raise CliInputError(f"{path}: expected a 'response' or 'moments' key")
    horizon = args.horizon or (len(values) + 1) // 2
    recover = (inverse.recover_from_response if key == "response"
               else inverse.recover_from_moments)
    result = recover(values, horizon, args.precision)
    a, b = result.a, result.b
    payload = {
        "a": _json_numbers(a),
        "b": _json_numbers(b),
        "residual": _json_number(result.residual),
        "path": result.path,
        "precision": result.precision.value,
    }
    return payload, lambda: [["k", "a_k", "b_k"]] + [
        [str(k), _csv_number(x), _csv_number(y)]
        for k, (x, y) in enumerate(zip(a, b), 1)]


def _cmd_diagnose(args):
    coeffs = _primary_coefficients(args)
    if args.n_max is None:
        raise CliInputError("command 'diagnose' requires --N-max")
    report = determinacy.classify(coeffs, args.n_max, args.precision)
    return report.to_json_dict(), report.csv_rows


def _cmd_kernel(args):
    coeffs = _primary_coefficients(args)
    horizon = _require_horizon(args)
    if len(args.input) > 1:
        points = _points(args, ("z", "lambda"))
    else:
        points = [(complex(re, im), complex(lam)) for re in (-2.0, 0.0, 2.0)
                  for im in (0.5, 1.5) for lam in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    entries = []
    for z, lam in points:
        val = complex(debranges.kernel_finite(coeffs, z, lam, horizon))
        entries.append({"re_z": z.real, "im_z": z.imag,
                        "re_lambda": lam.real, "im_lambda": lam.imag,
                        "re_value": val.real, "im_value": val.imag})
    return _grid_output(horizon, entries)


def _cmd_hb(args):
    coeffs = _primary_coefficients(args)
    horizon = _require_horizon(args)
    if len(args.input) > 1:
        points = [z for (z,) in _points(args, ("z",))]
    else:
        points = [complex(re, im) for re in (-2.0, -1.0, 0.0, 1.0, 2.0)
                  for im in (0.25, 0.5, 1.0, 2.0, 4.0)]
    evaluator = debranges.hermite_biehler(coeffs, horizon)
    entries = []
    for z in points:
        val = complex(evaluator(z))
        entries.append({"re_z": z.real, "im_z": z.imag,
                        "re_value": val.real, "im_value": val.imag})
    return _grid_output(horizon, entries)


def _grid_output(horizon: int, entries: list):
    """Payload and CSV producer of evaluation entries; the CSV columns are
    the keys."""
    values = [{k: _json_number(v) for k, v in e.items()} for e in entries]
    return {"horizon": horizon, "values": values}, lambda: [list(entries[0])] + [
        [_csv_number(v) for v in e.values()] for e in entries]


def _cmd_moments(args):
    obj = _primary_input(args)
    path = args.input[0]
    key, values = _sequence_input(obj, path)
    if key == "response":
        out_key, label, convert = "moments", "s_k", moments_mod.response_to_moments
    elif key == "moments":
        out_key, label, convert = "response", "r_k", moments_mod.moments_to_response
    else:
        raise CliInputError(f"{path}: expected a 'response' or 'moments' key")
    out = convert(values, args.precision)
    return ({"direction": f"{key}-to-{out_key}", out_key: _json_numbers(out)},
            _series_rows("k", label, out))


# name -> (handler, help); drives both the subparsers and the dispatch
_COMMANDS = {
    "simulate": (_cmd_simulate,
                 "run the forward solver (impulse control by default)"),
    "response": (_cmd_response, "extract the response vector"),
    "connect": (_cmd_connect, "build a connecting matrix"),
    "recover": (_cmd_recover, "recover coefficients from a response or moments"),
    "diagnose": (_cmd_diagnose, "determinacy report"),
    "kernel": (_cmd_kernel, "evaluate the reproducing kernel on a grid"),
    "hb": (_cmd_hb, "evaluate the Hermite-Biehler function on a grid"),
    "moments": (_cmd_moments, "convert between responses and moments"),
}


def _write_output(args, payload: dict, csv_rows) -> None:
    """Encode the requested format only: JSON streamed by the encoder of
    ``json.dumps(..., indent=2)``, or the CSV producer's rows."""
    with (open(args.output, "w", encoding="utf-8", newline="") if args.output
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.fmt == "json":
            json.dump({"schema": SCHEMA_TAG, "command": args.command,
                       **payload}, fh, indent=2)
            fh.write("\n")
        else:
            csv.writer(fh).writerows(csv_rows())


def _emit_error(exc: Exception, validation: bool) -> None:
    doc = {"schema": SCHEMA_TAG,
           "error": {"type": type(exc).__name__,
                     "kind": "validation" if validation else "internal",
                     "message": str(exc)}}
    sys.stderr.write(json.dumps(doc, indent=2) + "\n")


def _parse_precision(value: str) -> PrecisionMode:
    try:
        return PrecisionMode(value)
    except ValueError as exc:
        raise CliInputError(
            f"unknown precision {value!r}; choose double, extended, or rational"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobi-bc",
        description="Boundary-control toolkit for Jacobi matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, doc) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--input", action="append", default=[],
                       help="input JSON file (repeatable where documented)")
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.add_argument("--T", dest="horizon", type=int, default=None,
                       help="time horizon / block size")
        p.add_argument("--N-max", dest="n_max", type=int, default=None,
                       help="maximum block size for sequence diagnostics")
        p.add_argument("--precision", default=None,
                       choices=["double", "extended", "rational"],
                       help="arithmetic mode (default double, or "
                            "JACOBI_BC_PRECISION)")
        p.add_argument("--format", dest="fmt", default="json",
                       choices=["json", "csv"], help="output format")
    return parser


def main(argv=None) -> int:
    """Run one command; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        for flag, value in (("--T", args.horizon), ("--N-max", args.n_max)):
            if value is not None and value < 1:
                raise CliInputError(f"{flag} must be >= 1")
        args.precision = _parse_precision(
            args.precision or os.environ.get("JACOBI_BC_PRECISION", "double"))
        payload, csv_rows = _COMMANDS[args.command][0](args)
        _write_output(args, payload, csv_rows)
        return 0
    except (CliInputError, JacobiBCError) as exc:
        _emit_error(exc, validation=True)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error(exc, validation=False)
        return 1


if __name__ == "__main__":
    sys.exit(main())
