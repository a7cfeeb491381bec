import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import jacobi_bc
from jacobi_bc import (
    JacobiCoefficients,
    PrecisionMode,
    chebyshev_transform,
    connecting_from_response,
    response_to_moments,
    response_vector,
)
from jacobi_bc.cli import (_json_number, _json_numbers, _write_output,
                           build_parser, main)

from conftest import semicircle_moments


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def free_file(tmp_path):
    return write_json(tmp_path / "free.json",
                      {"a": [], "b": [], "generator": {"kind": "free", "params": {}}})


@pytest.fixture
def geo_file(tmp_path):
    return write_json(
        tmp_path / "geo.json",
        {"a": [], "b": [], "generator": {"kind": "geometric",
                                         "params": {"ratio": 2}}})


# the options each command reads beside --input, --output and --format
READS = {"simulate": ("--T", "--precision"), "response": ("--T", "--precision"),
         "connect": ("--T", "--precision"), "recover": ("--T", "--precision"),
         "diagnose": ("--N-max", "--precision"), "kernel": ("--T",),
         "hb": ("--T",), "moments": ("--precision",)}


class TestRecover:
    def test_free_response(self, tmp_path, free_file, capsys):
        resp = write_json(tmp_path / "r.json", {"response": [1, 0, 0, 0, 0]})
        out = tmp_path / "out.json"
        code = main(["recover", "--input", resp, "--T", "3",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "jacobi-bc/1"
        assert doc["a"] == [1.0, 1.0] and doc["b"] == [0.0, 0.0]
        assert doc["path"] == "BoundaryControl"

    def test_non_response_exits_2(self, tmp_path, capsys):
        resp = write_json(tmp_path / "bad.json", {"response": [1, 2, 0]})
        code = main(["recover", "--input", resp, "--T", "2"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NotAResponseVectorError"
        assert "not a response vector" in err["error"]["message"]

    @pytest.mark.parametrize("key", ["response", "moments"])
    def test_short_data_exits_2(self, tmp_path, capsys, key):
        path = write_json(tmp_path / "short.json", {key: [1, 0, 1, 0]})
        assert main(["recover", "--input", path, "--T", "3"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "InsufficientDataError"

    def test_catalan_moments_recover_exactly_in_rational(self, tmp_path):
        # JSON ints up to C_36, in [2^63, 2^64), where numpy would round
        # them to float64 and fail at pivot 31
        path = write_json(tmp_path / "m.json",
                          {"moments": semicircle_moments(73)})
        out = tmp_path / "out.json"
        assert main(["recover", "--input", path, "--precision", "rational",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["a"] == [1.0] * 36 and doc["b"] == [0.0] * 36
        assert doc["residual"] == 0.0

    def test_moments_input(self, tmp_path):
        resp = write_json(tmp_path / "m.json", {"moments": [1, 1, 2]})
        out = tmp_path / "out.json"
        assert main(["recover", "--input", resp, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["path"] == "Hankel"
        assert np.allclose(doc["a"], [1.0]) and np.allclose(doc["b"], [1.0])


class TestDiagnose:
    def test_geometric_indeterminate(self, tmp_path, geo_file):
        out = tmp_path / "d.json"
        code = main(["diagnose", "--input", geo_file, "--N-max", "10",
                     "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "LikelyIndeterminate"

    def test_csv_table(self, tmp_path, free_file):
        out = tmp_path / "d.csv"
        code = main(["diagnose", "--input", free_file, "--N-max", "5",
                     "--format", "csv", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,lambda_N,beta_N,gamma_N"
        assert len(lines) == 6


    def test_finite_family_shorter_than_depth(self, tmp_path):
        coeffs = write_json(tmp_path / "c.json",
                            {"a": [1, 1, 1, 1, 1], "b": [0, 0, 0, 0, 0],
                             "generator": None})
        out = tmp_path / "d.json"
        code = main(["diagnose", "--input", coeffs, "--N-max", "3",
                     "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "Inconclusive"


class TestParser:
    def test_successive_calls_keep_their_own_inputs(self, tmp_path, capsys,
                                                    free_file, geo_file):
        # main() reuses one parser: the --input append default must not
        # collect the files of earlier calls
        outs = []
        for path in (free_file, geo_file, free_file):
            out = tmp_path / f"r{len(outs)}.json"
            assert main(["response", "--input", path, "--T", "3",
                         "--output", str(out)]) == 0
            outs.append(json.loads(out.read_text())["response"])
        assert outs[0] == outs[2] != outs[1]
        assert main(["response", "--T", "3"]) == 2
        assert "requires --input" in json.loads(
            capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["response", "--T", "x"], ["response", "--bogus"], ["bogus"], []],
        ids=["bad-value", "unknown-flag", "unknown-command", "no-command"])
    def test_argument_errors_write_one_validation_document(self, argv,
                                                           capsys):
        # main returns its code: no usage text and no SystemExit
        assert main(argv) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.err)
        assert captured.out == "" and set(doc) == {"schema", "error"}
        assert doc["error"]["kind"] == "validation"
        assert doc["error"]["type"] == "CliInputError"

    @pytest.mark.parametrize("argv", [["--help"], ["recover", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: jacobi-bc")


def _runnable(tmp_path, command):
    """A command line of ``command`` that exits 0, with the most --input
    files it takes and every option it reads, and its first input file."""
    coeffs = write_json(tmp_path / "c.json", {"a": [1, 0.5, 0.75],
                                              "b": [0.25, -0.5, 0.1]})
    response = write_json(tmp_path / "r.json", {"response": [1, 0, 0, 0, 0]})
    second = {"simulate": {"control": [1, -0.5]},
              "kernel": {"points": [{"z": [0, 1], "lambda": 0.5}]},
              "hb": {"points": [{"z": [0, 1]}]}}
    data = response if command in ("recover", "moments") else coeffs
    argv = [command, "--input", data, "--output", str(tmp_path / "out")]
    if command in second:
        argv += ["--input", write_json(tmp_path / "2.json", second[command])]
    for flag in READS[command]:
        argv += [flag, "double" if flag == "--precision" else "3"]
    return argv, data


_UNREAD = [(command, flag) for command in READS
           for flag in ("--T", "--N-max", "--precision")
           if flag not in READS[command]]


@pytest.mark.parametrize("command, flag", _UNREAD + [
    (command, "--input") for command in READS])
def test_an_option_the_command_does_not_read_exits_2(tmp_path, capsys,
                                                     command, flag):
    # each of these was parsed, range-checked and then dropped
    argv, data = _runnable(tmp_path, command)
    assert main(argv) == 0
    capsys.readouterr()
    extra = {"--T": "3", "--N-max": "3", "--precision": "rational",
             "--input": data}[flag]
    assert main(argv + [flag, extra]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert (err["type"], err["kind"]) == ("CliInputError", "validation")
    assert flag in err["message"] and captured.out == ""


def test_the_parser_takes_only_the_options_each_command_reads():
    # 6 options on each of 8 commands were 48 settable slots; 11 are gone
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    taken = {name: tuple(flag for action in parser._actions
                         for flag in action.option_strings if flag != "-h"
                         and flag != "--help")
             for name, parser in sub.choices.items()}
    assert taken == {command: ("--input", "--output", *flags, "--format")
                     for command, flags in READS.items()}
    assert len(_UNREAD) == 11 and sum(map(len, taken.values())) == 37


def test_kernel_and_hb_read_no_precision_environment(tmp_path, monkeypatch,
                                                     free_file):
    # they compute in float64, so a bogus mode no longer stops them
    monkeypatch.setenv("JACOBI_BC_PRECISION", "bogus")
    for command in ("kernel", "hb"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--input", free_file, "--T", "2",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == command


class TestValidationFailures:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "x.json"
        bad.write_text("{not json")
        assert main(["response", "--input", str(bad), "--T", "3"]) == 2
        assert "malformed JSON" in json.loads(
            capsys.readouterr().err)["error"]["message"]

    def test_missing_required_flag(self, free_file, capsys):
        assert main(["response", "--input", free_file]) == 2

    def test_missing_input(self, capsys):
        assert main(["response", "--T", "3"]) == 2

    def test_wrong_payload_key(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"something": [1]})
        assert main(["recover", "--input", path]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["diagnose"], "command 'diagnose' requires --N-max"),
        (["response", "--T", "3"], "cannot read input file"),
    ], ids=["diagnose-without-N-max", "unreadable-input"])
    def test_validation_document(self, tmp_path, capsys, free_file, argv,
                                 message):
        path = free_file if argv[0] == "diagnose" else str(tmp_path / "no")
        assert main(argv + ["--input", path]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation" and message in err["message"]


class TestMalformedInput:
    @pytest.mark.parametrize("command, payload", [
        ("recover", {"response": [1, float("nan"), 1, 0, 2]}),
        ("recover", {"response": [True, False, True]}),
        ("recover", {"response": [1, float("inf"), 1]}),
        ("moments", {"moments": [1, float("nan"), 1]}),
        ("connect", {"moments": [1, 0, "1"]}),
        ("response", {"a": [], "b": [], "generator": {
            "kind": "geometric", "params": {"ratio": "x"}}}),
        ("response", {"a": [], "b": [], "generator": {
            "kind": "geometric", "params": {"ratio": True}}}),
        ("response", {"a": [1, -1, 1], "b": [0, 0, 0]}),
        ("response", {"a": [2, 1], "b": [0, 0]}),
        ("response", {"a": [1, 1], "b": []}),
        ("response", [1, 2, 3]),
        ("response", {"generator": {"kind": "mystery", "params": {}}}),
        ("recover", {"response": [1, 10 ** 400, 1]}),
    ])
    def test_exits_2(self, tmp_path, capsys, command, payload):
        path = write_json(tmp_path / "in.json", payload)
        size = [] if command == "moments" else ["--T", "2"]
        assert main([command, "--input", path] + size) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "validation"

    # float entries but one: the one-pass check of an all-float list
    # falls back to the per-entry loop, which words the message
    @pytest.mark.parametrize("key, bad, message", [
        ("a", True, "'a' must be a non-empty list of finite numbers"),
        ("b", float("inf"), "'b' must be a non-empty list of finite numbers"),
        ("a", float("nan"), "'a' must be a non-empty list of finite numbers"),
        # an int that JSON reads exactly but float64 cannot hold
        pytest.param("a", 10 ** 400,
                     "'a' must be a non-empty list of finite numbers",
                     id="a-int-beyond-float64"),
        ("a0", 2.0, "invalid coefficients: a_0 convention violated: "
                    "expected a_0 = 1, got 2.0"),
        ("a", -0.5, "invalid coefficients: negative off-diagonal: a_2 = -0.5"),
        ("a", 0.0, "invalid coefficients: negative off-diagonal: a_2 = 0.0"),
    ])
    def test_all_float_input_keeps_its_message(self, tmp_path, capsys, key,
                                               bad, message):
        payload = {"a": [1.0, 0.5, 0.75, 1.25], "b": [0.25, -0.5, 0.0, 1.5]}
        if key == "a0":
            payload["a"][0] = bad
        else:
            payload[key][2] = bad
        path = write_json(tmp_path / "in.json", payload)
        assert main(["response", "--input", path, "--T", "2"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"] \
            == f"{path}: {message}"

    def test_bad_points(self, tmp_path, free_file):
        pts = write_json(tmp_path / "p.json", {"points": [1.0]})
        assert main(["hb", "--input", free_file, "--input", pts,
                     "--T", "2"]) == 2

    @pytest.mark.parametrize("z", [10 ** 400, [0, 10 ** 400]],
                             ids=["real", "imaginary"])
    def test_points_beyond_float64(self, tmp_path, capsys, free_file, z):
        pts = write_json(tmp_path / "p.json", {"points": [{"z": z}]})
        assert main(["hb", "--input", free_file, "--input", pts,
                     "--T", "2"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] \
            == "validation"

    @pytest.mark.parametrize("flag", ["--T", "--N-max"])
    def test_non_positive_size(self, free_file, flag):
        command = "diagnose" if flag == "--N-max" else "response"
        assert main([command, "--input", free_file, flag, "0"]) == 2

    def test_control_longer_than_the_horizon(self, tmp_path, free_file,
                                             capsys):
        ctrl = write_json(tmp_path / "c.json", {"control": [1, 2, 3, 4, 5]})
        argv = ["simulate", "--input", free_file, "--input", ctrl]
        assert main(argv + ["--T", "2"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "CliInputError" and err["kind"] == "validation"
        assert "more than --T 2" in err["message"]
        assert main(argv + ["--T", "5", "--output", str(tmp_path / "s")]) == 0


_JUNK = st.one_of(st.booleans(), st.none(), st.text(max_size=2),
                  st.sampled_from([float("nan"), float("inf"), -float("inf")]))
_NUMBER = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0))
_ENTRY = st.one_of(_NUMBER, _NUMBER, _JUNK)
_LIST = st.one_of(st.lists(_NUMBER, max_size=9), st.lists(_ENTRY, max_size=9))
_VALUE = st.one_of(_LIST, _ENTRY)
_PAYLOAD = st.one_of(
    st.fixed_dictionaries({"response": _VALUE}),
    st.fixed_dictionaries({"moments": _VALUE}),
    st.fixed_dictionaries({"a": _VALUE, "b": _VALUE}),
    st.fixed_dictionaries({"a": st.just([]), "b": st.just([]),
                           "generator": st.fixed_dictionaries({
                               "kind": st.sampled_from(["free", "geometric", "x"]),
                               "params": st.fixed_dictionaries({"ratio": _ENTRY})})}),
    _VALUE,
)


@settings(max_examples=200)
@given(payload=_PAYLOAD,
       command=st.sampled_from(["simulate", "response", "connect", "recover",
                                "diagnose", "kernel", "hb", "moments"]),
       size=st.integers(1, 4),
       precision=st.sampled_from(["double", "extended", "rational"]))
@example(payload={"a": [1, 0.5], "b": [0, 0, 0]}, command="simulate",
         size=3, precision="double")
@example(payload={"a": [], "b": [], "generator": {
    "kind": "geometric", "params": {"ratio": 2}}}, command="response",
         size=4, precision="extended")
@example(payload={"response": [1, 0, 1, 0, 2]}, command="connect", size=3,
         precision="rational")
@example(payload={"moments": [1, 0, 1, 0, 2]}, command="recover", size=3,
         precision="double")
@example(payload={"response": [1, "x", None]}, command="diagnose", size=2,
         precision="extended")
@example(payload={"a": [1, 1], "b": [0, -1, 0.5]}, command="kernel", size=2,
         precision="rational")
@example(payload={"a": [], "b": [], "generator": {
    "kind": "x", "params": {"ratio": None}}}, command="hb", size=1,
         precision="double")
@example(payload=[1, 2, float("inf")], command="moments", size=4,
         precision="double")
def test_payload_exit_code_is_0_or_2(payload, command, size, precision):
    # malformed input is a validation failure (2), never internal (1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        argv = [command, "--input", path, "--output", os.path.join(tmp, "out")]
        for flag in READS[command]:
            argv += [flag, precision if flag == "--precision" else str(size)]
        assert main(argv) in (0, 2)


class TestSizeLimits:
    @pytest.mark.parametrize("command, size", [("response", 1030),
                                               ("simulate", 1100)])
    def test_double_overflow_exits_2(self, geo_file, capsys, command, size):
        # a_1024 = 2**1024 is beyond float64
        code = main([command, "--input", geo_file, "--T", str(size)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation"
        assert err["type"] == "ConditioningError"
        assert "--precision extended" in err["message"]

    @pytest.mark.parametrize("key", ["moments", "response"])
    def test_long_double_conversion_exits_2_quickly(self, tmp_path, capsys,
                                                    key):
        # row 1483 of the transform holds an integer beyond float64; the
        # rows before it are generated one at a time, not as a table
        path = write_json(tmp_path / "in.json",
                          {key: [1 / (k + 1) for k in range(2100)]})
        start = time.perf_counter()
        code = main(["moments", "--input", path])
        assert time.perf_counter() - start < 2
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConditioningError"
        assert "--precision extended" in err["message"]

    def test_long_double_connect_exits_2_quickly(self, tmp_path, capsys):
        # the transform conjugating S_T is filled one row at a time, and
        # its row 1483 holds an integer beyond float64
        path = write_json(tmp_path / "in.json",
                          {"moments": [1 / (k + 1) for k in range(2967)]})
        start = time.perf_counter()
        code = main(["connect", "--input", path, "--T", "1484"])
        assert time.perf_counter() - start < 2
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConditioningError"
        assert "--precision extended" in err["message"]

    @pytest.mark.parametrize("command, payload, size", [
        # the connecting matrix sums past 1.8e308
        ("recover", {"response": [1e308, 0, 1e308, 0, 1e308]}, 3),
    ])
    def test_non_finite_double_matrix_exits_2(self, tmp_path, capsys,
                                              command, payload, size):
        path = write_json(tmp_path / "in.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([command, "--input", path, "--T", str(size)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConditioningError"
        assert "--precision extended" in err["message"]

    @pytest.mark.parametrize("n_max", [36, 40, 48, 64])
    def test_double_diagnose_keeps_the_extended_verdict(self, tmp_path,
                                                        geo_file, n_max):
        # the moments of geometric(2) overflow float64 from N = 36, but
        # diagnose reads its sequences off the coefficients
        verdicts = []
        for precision in ("double", "extended"):
            out = tmp_path / f"{precision}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["diagnose", "--input", geo_file, "--N-max",
                             str(n_max), "--precision", precision,
                             "--output", str(out)]) == 0
            verdicts.append(json.loads(out.read_text())["verdict"])
        assert verdicts == ["LikelyIndeterminate"] * 2

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("ratio", [2e5, 200000.5], ids=["int", "float"])
    def test_coefficient_beyond_float_exits_2(self, tmp_path, capsys,
                                              precision, ratio):
        # the depth-60 deficiency sums read a_59 = ratio^59 > 1.8e308: an
        # int rule gives it exactly, a float rule overflows computing it
        path = write_json(tmp_path / "in.json", {
            "generator": {"kind": "geometric", "params": {"ratio": ratio}}})
        assert main(["diagnose", "--input", path, "--N-max", "4",
                     "--precision", precision]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation"
        assert err["type"] == "ConditioningError"
        assert "a_59" in err["message"]
        # no precision mode holds it for those sums
        assert "extended" not in err["message"]

    def test_oversized_field_exits_2_before_allocating(self, free_file, capsys):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["simulate", "--input", free_file, "--T", "10000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 10_000_000
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation"
        assert "physical memory" in err["message"]

    @pytest.mark.parametrize("precision, cell", [("double", 8),
                                                 ("extended", 8 + 48)])
    def test_oversized_diagnose_refused_before_sweeping(
            self, monkeypatch, free_file, capsys, precision, cell):
        # the estimate of the impulse field behind gamma_T, rows 0..N and
        # columns -1..N, at the bytes per cell of the precision
        from jacobi_bc import _multiprec, dynamics
        n_max = 20
        estimate = (n_max + 1) * (n_max + 2) * cell
        sweeps = []
        for name in ("_float_sweep", "_integer_sweep"):
            monkeypatch.setattr(_multiprec, name,
                                lambda *a, sweep=getattr(_multiprec, name):
                                sweeps.append(1) or sweep(*a))
        argv = ["diagnose", "--input", free_file, "--N-max", str(n_max),
                "--precision", precision]
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: estimate - 1)
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation"
        assert "physical memory" in err["message"]
        assert sweeps == []
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: estimate)
        assert main(argv) == 0
        assert sweeps == [1]

    @pytest.mark.parametrize("key, block", [("response", "connecting matrix"),
                                            ("moments", "Hankel block")])
    def test_oversized_block_exits_2_under_an_address_space_limit(
            self, tmp_path, key, block):
        # 200,000 entries, or enough that a float64 block exceeds this
        # host's physical memory; the child may map 3 GiB, so a block
        # allocated before the size check would exit 1 with MemoryError
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        entries = max(200_000, 2 * math.isqrt(memory // 8) + 3)
        path = write_json(tmp_path / "in.json",
                          {key: [1.0] + [0.0] * (entries - 1)})
        proc = _fresh_cli(["connect", "--input", path, "--output",
                           str(tmp_path / "out.json")],
                          address_space=3 * 2**30)
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert err["kind"] == "validation"
        assert err["type"] == "JacobiBCError"
        assert f"x {(entries + 1) // 2} {block} needs" in err["message"]
        assert "physical memory" in err["message"]


def _fresh_python(args, address_space=None):
    """A new interpreter on this package under Python's default warning
    filters, so a numpy warning would reach its stderr; with
    ``address_space``, capped at that many bytes of address space, the
    cap set in the child alone."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(jacobi_bc.__file__).parents[1])
    limit = address_space and (lambda: resource.setrlimit(
        resource.RLIMIT_AS, (address_space, address_space)))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300, preexec_fn=limit)


def _fresh_cli(argv, address_space=None):
    """The CLI in a new interpreter (see ``_fresh_python``)."""
    return _fresh_python(["-m", "jacobi_bc.cli", *argv], address_space)


class TestStderr:
    """A failing command writes one JSON document to stderr and nothing
    else: an overflow the library refuses raises no numpy warning first."""

    OVERFLOWING = {"response": [1e308, 0, 1e308, 0, 1e308]}

    @pytest.mark.parametrize("argv, payload", [
        (["recover", "--T", "3"], OVERFLOWING),
        (["recover", "--T", "3"], {"moments": [1e308, 0, 1e308, 0, 1e308]}),
        (["diagnose", "--N-max", "4"],
         {"generator": {"kind": "geometric", "params": {"ratio": 2e5}}}),
    ])
    def test_one_json_document(self, tmp_path, argv, payload):
        path = write_json(tmp_path / "in.json", payload)
        proc = _fresh_cli(argv + ["--input", path])
        assert proc.returncode == 2
        assert set(json.loads(proc.stderr)) == {"schema", "error"}

    def test_overflowed_connect_warns_nothing(self, tmp_path):
        path = write_json(tmp_path / "in.json", self.OVERFLOWING)
        proc = _fresh_cli(["connect", "--T", "3", "--input", path])
        assert proc.returncode == 0 and proc.stderr == ""

    def test_overflowed_hankel_connect_warns_nothing(self, tmp_path):
        path = write_json(tmp_path / "in.json",
                          {"moments": [1e308, 0, 1e308, 0, 1e308, 0, 1e308]})
        proc = _fresh_cli(["connect", "--input", path])
        assert proc.returncode == 0 and proc.stderr == ""

    def test_overflowed_gram_connect_warns_nothing(self, tmp_path, geo_file):
        proc = _fresh_cli(["connect", "--T", "48", "--input", geo_file])
        assert proc.returncode == 0 and proc.stderr == ""
        matrix = json.loads(proc.stdout)["matrix"]
        assert None in matrix[-1]
        # a full W^T W product made this entry NaN through 0 * inf
        r = response_vector(JacobiCoefficients.geometric(2), 95)
        dynamic = connecting_from_response(r, 48).matrix
        assert matrix[0][46] == dynamic[0, 46] > 1e166


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, geo_file):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["diagnose", "--input", geo_file, "--N-max", "6",
                         "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestThinLayer:
    def test_response_equals_library_call(self, tmp_path, free_file):
        out = tmp_path / "r.json"
        assert main(["response", "--input", free_file, "--T", "6",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        direct = response_vector(JacobiCoefficients.free(), 6).as_array()
        assert doc["response"] == [float(v) for v in direct]

    def test_simulate_finite_vs_generator(self, tmp_path):
        fin = write_json(tmp_path / "fin.json",
                         {"a": [1.0], "b": [0.0], "generator": None})
        out = tmp_path / "s.json"
        assert main(["simulate", "--input", fin, "--T", "4",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["system"] == "finite"
        # depth-1 wall: u_{1,t} alternates 1, 0, -1, 0
        assert [doc["rows"][1][t + 1] for t in range(1, 5)] == [1, 0, -1, 0]

    def test_simulate_with_control_file(self, tmp_path, free_file):
        ctrl = write_json(tmp_path / "c.json", {"control": [0.0, 1.0]})
        out = tmp_path / "s.json"
        assert main(["simulate", "--input", free_file, "--input", ctrl,
                     "--T", "2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][1][3] == 1.0  # impulse delayed by one step

    def test_connect_moments_route(self, tmp_path):
        path = write_json(tmp_path / "m.json", {"moments": [1, 0, 1]})
        out = tmp_path / "c.json"
        assert main(["connect", "--input", path, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["orientation"] == "corner-top"
        assert doc["matrix"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_connect_prints_one_layout_for_every_route(self, tmp_path):
        a, b = [1.0, 0.75, 1.5, 1.25], [0.5, -0.25, 0.0, 1.0]
        r = response_vector(JacobiCoefficients.from_arrays(a, b), 7)
        inputs = {"coefficients": {"a": a, "b": b},
                  "response": {"response": [float(v) for v in r]},
                  "moments": {"moments": [float(v) for v in
                                          response_to_moments(r)]}}
        docs = {}
        for name, payload in inputs.items():
            path = write_json(tmp_path / f"{name}.json", payload)
            out = tmp_path / f"{name}.out.json"
            assert main(["connect", "--input", path, "--T", "4",
                         "--output", str(out)]) == 0
            docs[name] = json.loads(out.read_text())
        assert {doc["orientation"] for doc in docs.values()} == {"corner-top"}
        want = np.array(docs["coefficients"]["matrix"])
        for name in ("response", "moments"):
            got = np.array(docs[name]["matrix"])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_moments_conversion_round_trip(self, tmp_path):
        path = write_json(tmp_path / "r.json", {"response": [1, 1, 1]})
        out = tmp_path / "m.json"
        assert main(["moments", "--input", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["moments"] == [1.0, 1.0, 2.0]

    def test_kernel_csv_grid(self, tmp_path, free_file):
        out = tmp_path / "k.csv"
        assert main(["kernel", "--input", free_file, "--T", "2",
                     "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "re_z,im_z,re_lambda,im_lambda,re_value,im_value"
        assert len(lines) > 1

    def test_hb_points_file(self, tmp_path, free_file):
        pts = write_json(tmp_path / "p.json", {"points": [{"z": [0.0, 1.0]}]})
        out = tmp_path / "h.json"
        assert main(["hb", "--input", free_file, "--input", pts, "--T", "1",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        val = complex(doc["values"][0]["re_value"], doc["values"][0]["im_value"])
        assert abs(val - np.sqrt(np.pi) * 2) < 1e-12  # sqrt(pi)(1 - i*i)


class TestPrecisionSelection:
    def test_env_override(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "r.json", {"response": [1, 0, 0]})
        out = tmp_path / "o.json"
        monkeypatch.setenv("JACOBI_BC_PRECISION", "rational")
        assert main(["recover", "--input", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["precision"] == "rational"

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "r.json", {"response": [1, 0, 0]})
        out = tmp_path / "o.json"
        monkeypatch.setenv("JACOBI_BC_PRECISION", "rational")
        assert main(["recover", "--input", path, "--precision", "double",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["precision"] == "double"

    def test_unknown_env_precision_exits_2(self, tmp_path, monkeypatch,
                                           capsys):
        # the environment is the one way past the --precision choices
        path = write_json(tmp_path / "r.json", {"response": [1, 0, 0]})
        monkeypatch.setenv("JACOBI_BC_PRECISION", "bogus")
        assert main(["recover", "--input", path]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["kind"]) == ("CliInputError", "validation")
        assert "'bogus'" in err["message"] and captured.out == ""


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _probe_data(key, size):
    """Float data off the 1/8 grid: the float64 response, 2 size - 1
    entries, of a family with a_n drawn from U[0.5, 2] (seed 1) and
    b_n = 0, or its moments rounded once to float64."""
    rng = np.random.default_rng(1)
    coeffs = JacobiCoefficients.from_arrays(
        [1.0] + rng.uniform(0.5, 2.0, 80).tolist(), [0.0] * 80)
    r = response_vector(coeffs, 2 * size - 1).as_array()
    if key == "response":
        return r.tolist()
    return [float(x) for x in response_to_moments(r, PrecisionMode.RATIONAL)]


def _exact_block(key, values, size):
    """The block of the floats ``values`` in exact arithmetic, each entry
    rounded once: the defining sums of C_T, or Lambda S_T Lambda^T with
    the integer Chebyshev transform."""
    v = [Fraction(x) for x in values]
    if key == "response":
        block = [[sum(v[abs(i - j) + 2 * k] for k in range(min(i, j) + 1))
                  for j in range(size)] for i in range(size)]
    else:
        lam = chebyshev_transform(size).matrix
        hankel = np.array([[v[i + j] for j in range(size)]
                           for i in range(size)], dtype=object)
        block = (lam @ hankel @ lam.T).tolist()
    return np.array([[float(x) for x in row] for row in block])


class TestConnectModes:
    """``connect --precision`` reaches the response and moment routes: on
    float data RATIONAL gives the exact block rounded once, EXTENDED is
    within 1 ulp of it, and DOUBLE keeps the bytes it had when every mode
    gave the DOUBLE block (the digests)."""

    DOUBLE_DIGESTS = {
        ("response", 40):
            "f8332bf3b2a9d744f5fa534517d4e63c3fdd7ad5fe20db9edeb374aac7e1f7a6",
        ("moments", 10):
            "a83df692d11360d498f5bbcf49add118d10548c0fdfb03dd8aa56a1109737b52",
        ("moments", 20):
            "a9f612a82519240296f19847f638b9642e08d609f4bf2574d0f87948b46324b7",
        ("moments", 30):
            "32511c3fb26af43f58cf7ea747bb52eeae9ace51bec72a53fa042cac6cc2adc5",
    }

    @pytest.mark.parametrize("key, size", sorted(DOUBLE_DIGESTS))
    def test_each_mode_computes_in_its_own_arithmetic(self, tmp_path, key,
                                                      size):
        values = _probe_data(key, size)
        path = write_json(tmp_path / "in.json", {key: values})
        blocks = {}
        for mode in ("double", "extended", "rational"):
            out = tmp_path / f"{mode}.json"
            assert main(["connect", "--input", path, "--T", str(size),
                         "--precision", mode, "--output", str(out)]) == 0
            blocks[mode] = np.array(json.loads(out.read_text())["matrix"])
        exact = _exact_block(key, values, size)
        assert np.array_equal(blocks["rational"], exact)
        assert np.all(np.abs(blocks["extended"] - exact)
                      <= np.spacing(np.abs(exact)))
        double = blocks["double"]
        assert (double != exact).any()
        assert (hashlib.sha256(double.tobytes()).hexdigest()
                == self.DOUBLE_DIGESTS[key, size])


class TestValuesBeyondFloat64:
    @pytest.mark.parametrize("precision", ["double", "extended", "rational"])
    def test_response_writes_null(self, tmp_path, geo_file, precision):
        # geometric(2) responses pass 1.8e308 before T = 70 in every mode
        out = tmp_path / "r.json"
        assert main(["response", "--input", geo_file, "--T", "70",
                     "--precision", precision, "--output", str(out)]) == 0
        values = _strict_json(out.read_text())["response"]
        assert len(values) == 70 and None in values
        assert all(v is None or np.isfinite(v) for v in values)

    def test_csv_keeps_non_finite_tokens(self, tmp_path, geo_file):
        out = tmp_path / "r.csv"
        assert main(["response", "--input", geo_file, "--T", "70",
                     "--precision", "rational", "--format", "csv",
                     "--output", str(out)]) == 0
        cells = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
        assert cells & {"inf", "-inf"}

    def test_diagnose_keeps_its_verdict(self, tmp_path):
        geo3 = write_json(tmp_path / "g3.json", {
            "a": [], "b": [], "generator": {"kind": "geometric",
                                            "params": {"ratio": 3}}})
        out = tmp_path / "d.json"
        assert main(["diagnose", "--input", geo3, "--N-max", "30",
                     "--precision", "extended", "--output", str(out)]) == 0
        doc = _strict_json(out.read_text())
        assert doc["verdict"] == "LikelyIndeterminate"
        gamma = doc["gamma_seq"]
        # gamma_26..gamma_30 exceed the float64 range
        assert gamma[25:] == [None] * 5
        assert all(np.isfinite(g) for g in gamma[:25])

    @pytest.mark.parametrize("payload, n_max", [
        # |p_n(i)|^2 passes 1.8e308 before n = 60, and at n = 2
        ({"generator": {"kind": "geometric", "params": {"ratio": 0.5}}}, 40),
        ({"a": [1, 1e-200, 1], "b": [0, 0, 0]}, 3),
    ])
    def test_overflowed_deficiency_sums_diverge(self, tmp_path, payload,
                                                n_max):
        path = write_json(tmp_path / "c.json", payload)
        out = tmp_path / "d.json"
        assert main(["diagnose", "--input", path, "--N-max", str(n_max),
                     "--output", str(out)]) == 0
        doc = _strict_json(out.read_text())
        assert doc["verdict"] != "LikelyIndeterminate"
        assert doc["hankel_bound"] is doc["connecting_bound"] is None
        assert doc["deficiency_p_sums"][-1] is None
        assert any("bounds unavailable" in note for note in doc["notes"])

    def test_finite_output_is_the_indented_dump(self, tmp_path, free_file):
        out = tmp_path / "r.json"
        assert main(["response", "--input", free_file, "--T", "9",
                     "--output", str(out)]) == 0
        values = [float(v) for v in response_vector(JacobiCoefficients.free(), 9)]
        doc = {"schema": "jacobi-bc/1", "command": "response", "length": 9,
               "response": values}
        assert out.read_text() == json.dumps(doc, indent=2) + "\n"


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1e-7,
                     2 ** 64, -(10 ** 300)]),
    st.integers(-(2 ** 200), 2 ** 200))
_JSON_TEXT = st.text(st.sampled_from('ab, "\\/\n\t\x00\x1f\u00e9\u2028'
                                     '\U0001f600:[]{}'), max_size=8)
_JSON_DOCS = st.recursive(
    st.one_of(_JSON_SCALARS, _JSON_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_JSON_SCALARS, max_size=9),
        st.dictionaries(_JSON_TEXT, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=150)
@given(payload=st.dictionaries(_JSON_TEXT, _JSON_DOCS, max_size=5))
@example(payload={"rows": [[-0.0, 5e-324, 1e308, None, 10 ** 40, True],
                           [], [{}], ["a, b", 1.5]],
                  "empty": {}, "nested": {"\u00e9\n\"": {"x": []}},
                  "notes": ["\U0001f600", ""]})
@example(payload={})
def test_json_output_is_the_indented_dump(payload):
    doc = {"schema": "jacobi-bc/1", "command": "recover", **payload}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        args = argparse.Namespace(output=str(out), fmt="json",
                                  command="recover")
        _write_output(args, lambda: payload, None)
        assert out.read_bytes() == (json.dumps(doc, indent=2)
                                    + "\n").encode("utf-8")


@pytest.mark.parametrize("values", [
    np.array([1.5, np.inf, -np.inf, np.nan, -0.0, 5e-324]),
    jacobi_bc.ResponseVector(np.array([np.nan, 2.0])),
    np.array([3, 4]),
    [1, 2.5, 10 ** 400],
])
def test_json_numbers_of_float_arrays_convert_at_once(values):
    # tolist with null where float64 is not finite: the bits of the
    # number-by-number conversion, which other values keep
    want = [_json_number(v) for v in values]
    got = _json_numbers(values)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert json.dumps(got) == json.dumps(want)


# the simulate estimate in bytes per cell: a float64 field cell plus the
# JSON payload's share
_SIMULATE_CELL_BYTES = 8 + 40
# traced peak allowed per field cell: JSON holds the payload beside the
# field, CSV streams its rows from the field alone
_PEAK_CELL_BYTES = {"json": _SIMULATE_CELL_BYTES, "csv": 1.5 * 8}


class TestSimulateMemory:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_within_estimate(self, tmp_path, free_file, fmt):
        horizon = 1000
        estimate = (horizon + 1) * (horizon + 2) * _PEAK_CELL_BYTES[fmt]
        tracemalloc.start()
        try:
            code = main(["simulate", "--input", free_file, "--T", str(horizon),
                         "--format", fmt, "--output", str(tmp_path / "s")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < estimate

    def test_refused_before_solving(self, monkeypatch, free_file, capsys):
        from jacobi_bc import _multiprec, dynamics
        horizon = 20
        estimate = (horizon + 1) * (horizon + 2) * _SIMULATE_CELL_BYTES
        sweeps = []
        real_sweep = _multiprec._float_sweep
        monkeypatch.setattr(_multiprec, "_float_sweep",
                            lambda *a: sweeps.append(1) or real_sweep(*a))
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: estimate - 1)
        argv = ["simulate", "--input", free_file, "--T", str(horizon)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation" and "physical memory" in err["message"]
        assert sweeps == []
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: estimate)
        assert main(argv) == 0
        assert sweeps == [1]

    def test_csv_refused_only_beyond_the_field(self, monkeypatch, tmp_path,
                                               free_file, capsys):
        from jacobi_bc import dynamics
        horizon = 20
        field = (horizon + 1) * (horizon + 2) * 8
        argv = ["simulate", "--input", free_file, "--T", str(horizon),
                "--format", "csv", "--output", str(tmp_path / "s.csv")]
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: field - 1)
        assert main(argv) == 2
        assert "physical memory" in json.loads(
            capsys.readouterr().err)["error"]["message"]
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: field)
        assert main(argv) == 0


PINNED = Path(__file__).resolve().parent / "pinned"


# r_0..r_8 and s_0..s_8 of a = (1, 3/4, 5/4, 1/2, 7/8, 3/2), b = (1/4, -1/2,
# 3/8, -1/8, 5/8, -3/4): dyadic, hence exact in JSON and in float64.
EIGHTHS_RESPONSE = [1.0, 0.25, -0.375, -0.484375, 0.4296875, 0.48193359375,
                    -0.53167724609375, -0.5329360961914062,
                    -0.014582633972167969]
EIGHTHS_MOMENTS = [1.0, 0.25, 0.625, 0.015625, 1.3046875, -0.20556640625,
                   3.24176025390625, -0.9225845336914062, 8.357426643371582]

# A decaying perturbation of the free family with b != 0, size 32: a_n =
# 1 - 1/(2 (n+1)^2), b_n = (-1)^n 3/(10 (n+1)^2).
DECAYING = {"a": [1.0] + [1 - 0.5 / (n + 1) ** 2 for n in range(1, 32)],
            "b": [(-1) ** n * 0.3 / (n + 1) ** 2 for n in range(1, 33)],
            "generator": None}


class TestPinnedBytes:
    """The exact bytes of the outputs in ``tests/pinned``: a finite family
    under a control file; geometric(3) in EXTENDED, whose gamma_26..gamma_30
    are null in JSON and inf in CSV (CSV rows end in CRLF, as csv.writer
    writes); RATIONAL recovery of a 1/8-grid family from its response and
    from its moments; the DOUBLE response r_0..r_62 of a decaying family and
    its recovery; the connecting block of the 1/8-grid response, of its
    moments and of the decaying family's coefficients; the moment/response
    conversion both ways; and the kernel and Hermite-Biehler function of the
    decaying family on the default grid and on a points file."""

    @pytest.mark.parametrize("name", ["simulate.json", "simulate.csv",
                                      "diagnose.json", "diagnose.csv",
                                      "recover-response.json",
                                      "recover-response.csv",
                                      "recover-moments.json",
                                      "recover-moments.csv",
                                      "response.json",
                                      "recover-double.json",
                                      "recover-double.csv"] + [
        f"{command}.{fmt}" for command in (
            "connect-response", "connect-moments", "connect-coefficients",
            "moments-response", "moments-moments", "kernel-grid",
            "kernel-points", "hb-grid", "hb-points")
        for fmt in ("json", "csv")])
    def test_output_bytes(self, tmp_path, name):
        command, fmt = name.split(".")
        if command == "simulate":
            coeffs = write_json(tmp_path / "c.json", {
                "a": [1, 0.5, 0.75], "b": [0.25, -0.75, 0.1],
                "generator": None})
            ctrl = write_json(tmp_path / "u.json", {"control": [0.5, -1.0, 0.25]})
            argv = ["simulate", "--input", coeffs, "--input", ctrl, "--T", "4"]
        elif command == "diagnose":
            coeffs = write_json(tmp_path / "c.json", {
                "generator": {"kind": "geometric", "params": {"ratio": 3}}})
            argv = ["diagnose", "--input", coeffs, "--N-max", "30",
                    "--precision", "extended"]
        elif command in ("response", "recover-double"):
            coeffs = write_json(tmp_path / "c.json", DECAYING)
            argv = ["response", "--input", coeffs, "--T", "63"]
            if command == "recover-double":
                response = str(tmp_path / "r.json")
                assert main(argv + ["--output", response]) == 0
                argv = ["recover", "--input", response]
        elif command == "connect-coefficients":
            coeffs = write_json(tmp_path / "c.json", DECAYING)
            argv = ["connect", "--input", coeffs, "--T", "5"]
        elif command.startswith(("kernel", "hb")):
            cmd, grid = command.split("-")
            coeffs = write_json(tmp_path / "c.json", DECAYING)
            argv = [cmd, "--input", coeffs, "--T", "6"]
            if grid == "points":
                points = [{"z": [0.5, 1.0], "lambda": -0.75},
                          {"z": 2.0, "lambda": [0.25, -0.5]},
                          {"z": [-1.5, 0.25], "lambda": [1.0, 3.0]}]
                argv += ["--input", write_json(tmp_path / "p.json",
                                               {"points": points})]
        else:
            cmd, key = command.split("-")
            values = EIGHTHS_RESPONSE if key == "response" else EIGHTHS_MOMENTS
            data = write_json(tmp_path / "d.json", {key: values})
            argv = [cmd, "--input", data]
            if cmd == "recover":
                argv += ["--precision", "rational"]
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
        assert out.read_bytes() == (PINNED / name).read_bytes()
