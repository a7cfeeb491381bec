"""Command-line interface for scripted experiments.

Every command is a thin composition of library calls with file-based
JSON/CSV I/O; no numerical logic lives here.  Outputs are deterministic:
identical configurations produce byte-identical files.

Exit codes: 0 success, 2 validation failure (malformed input, data that
fails a positivity characterization, values or fields the precision mode
or the memory cannot hold), 1 internal error.  Failures write
a machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .core import (
    SCHEMA_TAG,
    JacobiBCError,
    JacobiCoefficients,
    PrecisionMode,
    validate_coefficients,
    _is_real,
)
from . import connecting as connecting_mod
from . import debranges
from . import determinacy
from . import dynamics
from . import inverse
from . import moments as moments_mod

__all__ = ["RunConfig", "run", "main"]

COMMANDS = ("simulate", "response", "connect", "recover", "diagnose",
            "kernel", "hb", "moments")


class CliInputError(Exception):
    """Malformed or inconsistent command input (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: exactly one command plus its I/O settings."""

    command: str
    inputs: tuple
    output: str | None
    horizon: int | None
    n_max: int | None
    precision: PrecisionMode
    fmt: str


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


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


def _require_horizon(config: RunConfig) -> int:
    if config.horizon is None:
        raise CliInputError(f"command {config.command!r} requires --T")
    return config.horizon


def _primary_input(config: RunConfig) -> dict:
    if not config.inputs:
        raise CliInputError(f"command {config.command!r} requires --input")
    return _load_json(config.inputs[0])


def _primary_coefficients(config: RunConfig) -> JacobiCoefficients:
    return _coefficients(_primary_input(config), config.inputs[0])


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


def _points(config: RunConfig, keys: tuple) -> list:
    """Evaluation points of the second input file, one tuple per point."""
    path = config.inputs[1]
    raw = _load_json(path).get("points")
    if not isinstance(raw, list) or not raw or \
            not all(isinstance(p, dict) for p in raw):
        raise CliInputError(f"{path}: expected a 'points' list of objects")
    return [tuple(_complex_from(p.get(k), path) for k in keys) for p in raw]


# -- command handlers ----------------------------------------------------


def _cmd_simulate(config: RunConfig):
    coeffs = _primary_coefficients(config)
    horizon = _require_horizon(config)
    if len(config.inputs) > 1:
        ctrl_obj = _load_json(config.inputs[1])
        control = _number_list(ctrl_obj, "control", config.inputs[1])
    else:
        control = [1]  # the solvers zero-extend it to the horizon
    if coeffs.is_finite:
        field = dynamics.solve_finite(coeffs, coeffs.size, control, horizon,
                                      config.precision)
        system = "finite"
    else:
        field = dynamics.solve_semi_infinite(coeffs, control, horizon,
                                             config.precision)
        system = "semi-infinite"
    payload = {"system": system, **field.to_json_dict()}
    return payload, field.to_csv()


def _cmd_response(config: RunConfig):
    coeffs = _primary_coefficients(config)
    horizon = _require_horizon(config)
    r = dynamics.response_vector(coeffs, horizon, config.precision)
    values = [float(v) for v in r]
    payload = {"length": horizon, "response": values}
    rows = [["t", "r_t"]] + [[str(i), _fmt_float(v)] for i, v in enumerate(values)]
    return payload, _csv_text(rows)


def _connect_from_input(config: RunConfig):
    obj = _primary_input(config)
    path = config.inputs[0]
    key, values = _sequence_input(obj, path)
    if key is not None:
        size = config.horizon or (len(values) + 1) // 2
        if key == "response":
            return connecting_mod.connecting_from_response(values, size)
        hank = moments_mod.build_hankel(values, size)
        return connecting_mod.connecting_from_hankel(hank, size)
    coeffs = _coefficients(obj, path)
    size = _require_horizon(config)
    return connecting_mod.gram_from_control(coeffs, size, config.precision)


def _cmd_connect(config: RunConfig):
    conn = _connect_from_input(config)
    mat = [[float(v) for v in row] for row in conn.matrix]
    payload = {"size": conn.size, "orientation": conn.orientation.value,
               "matrix": mat}
    rows = [["orientation", conn.orientation.value]]
    rows += [[_fmt_float(v) for v in row] for row in mat]
    return payload, _csv_text(rows)


def _cmd_recover(config: RunConfig):
    obj = _primary_input(config)
    path = config.inputs[0]
    key, values = _sequence_input(obj, path)
    if key is None:
        raise CliInputError(f"{path}: expected a 'response' or 'moments' key")
    horizon = config.horizon or (len(values) + 1) // 2
    recover = (inverse.recover_from_response if key == "response"
               else inverse.recover_from_moments)
    result = recover(values, horizon, config.precision)
    payload = {
        "a": [float(v) for v in result.a],
        "b": [float(v) for v in result.b],
        "residual": result.residual,
        "path": result.path,
        "precision": result.precision.value,
    }
    rows = [["k", "a_k", "b_k"]]
    rows += [[str(k), _fmt_float(a), _fmt_float(b)]
             for k, (a, b) in enumerate(zip(payload["a"], payload["b"]), 1)]
    return payload, _csv_text(rows)


def _cmd_diagnose(config: RunConfig):
    coeffs = _primary_coefficients(config)
    if config.n_max is None:
        raise CliInputError("command 'diagnose' requires --N-max")
    report = determinacy.classify(coeffs, config.n_max, config.precision)
    return report.to_json_dict(), _csv_text(list(report.csv_rows()))


def _default_kernel_points():
    zs = [complex(re, im) for re in (-2.0, 0.0, 2.0) for im in (0.5, 1.5)]
    lams = [-2.0, -1.0, 0.0, 1.0, 2.0]
    return [(z, complex(lam)) for z in zs for lam in lams]


def _cmd_kernel(config: RunConfig):
    coeffs = _primary_coefficients(config)
    horizon = _require_horizon(config)
    if len(config.inputs) > 1:
        points = _points(config, ("z", "lambda"))
    else:
        points = _default_kernel_points()
    entries = []
    for z, lam in points:
        val = debranges.kernel_finite(coeffs, z, lam, horizon)
        entries.append({"re_z": z.real, "im_z": z.imag,
                        "re_lambda": lam.real, "im_lambda": lam.imag,
                        "re_value": complex(val).real,
                        "im_value": complex(val).imag})
    return _grid_output(horizon, entries)


def _cmd_hb(config: RunConfig):
    coeffs = _primary_coefficients(config)
    horizon = _require_horizon(config)
    if len(config.inputs) > 1:
        points = [z for (z,) in _points(config, ("z",))]
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
    """Payload and CSV of evaluation entries; the CSV columns are the keys."""
    rows = [list(entries[0])]
    rows += [[_fmt_float(v) for v in e.values()] for e in entries]
    return {"horizon": horizon, "values": entries}, _csv_text(rows)


def _cmd_moments(config: RunConfig):
    obj = _primary_input(config)
    path = config.inputs[0]
    key, values = _sequence_input(obj, path)
    if key == "response":
        out_key, label, convert = "moments", "s_k", moments_mod.response_to_moments
    elif key == "moments":
        out_key, label, convert = "response", "r_k", moments_mod.moments_to_response
    else:
        raise CliInputError(f"{path}: expected a 'response' or 'moments' key")
    values = [float(v) for v in convert(values, config.precision)]
    payload = {"direction": f"{key}-to-{out_key}", out_key: values}
    rows = [["k", label]] + [[str(i), _fmt_float(v)] for i, v in enumerate(values)]
    return payload, _csv_text(rows)


_HANDLERS = {
    "simulate": _cmd_simulate,
    "response": _cmd_response,
    "connect": _cmd_connect,
    "recover": _cmd_recover,
    "diagnose": _cmd_diagnose,
    "kernel": _cmd_kernel,
    "hb": _cmd_hb,
    "moments": _cmd_moments,
}


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_output(config: RunConfig, payload: dict, csv_text: str) -> None:
    if config.fmt == "json":
        body = json.dumps({"schema": SCHEMA_TAG, "command": config.command,
                           **payload}, indent=2)
        text = body + "\n"
    else:
        text = csv_text
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit code."""
    try:
        handler = _HANDLERS[config.command]
        payload, csv_text = handler(config)
        _write_output(config, payload, csv_text)
        return 0
    except (CliInputError, JacobiBCError) as exc:
        _emit_error(exc, validation=True)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error(exc, validation=False)
        return 1


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
    for name, doc in [
        ("simulate", "run the forward solver (impulse control by default)"),
        ("response", "extract the response vector"),
        ("connect", "build a connecting matrix"),
        ("recover", "recover coefficients from a response or moments"),
        ("diagnose", "determinacy report"),
        ("kernel", "evaluate the reproducing kernel on a grid"),
        ("hb", "evaluate the Hermite-Biehler function on a grid"),
        ("moments", "convert between responses and moments"),
    ]:
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


def config_from_args(args) -> RunConfig:
    precision = args.precision or os.environ.get("JACOBI_BC_PRECISION", "double")
    for flag, value in (("--T", args.horizon), ("--N-max", args.n_max)):
        if value is not None and value < 1:
            raise CliInputError(f"{flag} must be >= 1")
    return RunConfig(command=args.command, inputs=tuple(args.input),
                     output=args.output, horizon=args.horizon,
                     n_max=args.n_max, precision=_parse_precision(precision),
                     fmt=args.fmt)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except CliInputError as exc:
        _emit_error(exc, validation=True)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
