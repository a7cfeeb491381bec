"""The number table: how one value enters each precision mode, and how a
value of any mode leaves for float64.

Each kind of number a caller may pass (Python's, mpmath's of a caller's
context and of the package's own, numpy's scalars) and three non-numbers
enters each mode through ``lift`` of a one-entry object array, the
per-value step of every data, control and block route.  A cell pins the
value and its type, the bits of a float and the fields of an mpf, or the
exact error type and message.  A numpy scalar reads as the Python number
it holds, an ``np.bool_`` as the bool; a value that is no number is
refused in every mode with the same words, the mode's name aside.  An inf
or NaN of any float width is kept by ``double`` and ``extended`` and
refused by ``rational``, which has no exact value for it.

The exit gives the float64 of a value of any mode, or +-inf where float64
cannot hold an exact value; the ``double`` entry refuses such a value with
ConditioningError instead.
"""

import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_rational, round_nearest

import jacobi_bc as jb
from jacobi_bc import (ConditioningError, JacobiCoefficients, PrecisionMode,
                       validate_coefficients)
from jacobi_bc._multiprec import EXTENDED_DPS, _float64, lift
from jacobi_bc.spectral import eval_p_all

DOUBLE, EXTENDED, RATIONAL = PrecisionMode
BEYOND = ("a value exceeds double precision (about 1.8e308); use "
          "PrecisionMode.EXTENDED (--precision extended)")
# a float inf or NaN has no exact value
INF_OR_NAN = "a value is inf or NaN, which rational mode cannot hold"

# an independent context at the EXTENDED precision, for the expected fields
CTX = mpmath.MPContext()
CTX.dps = EXTENDED_DPS


def _once(value) -> tuple:
    """The mpf fields of the exact ``value`` rounded once to EXTENDED."""
    value = Fraction(value)
    return from_rational(value.numerator, value.denominator, CTX.prec,
                         round_nearest)


def _own(value):
    """An mpf or mpc of the package's own EXTENDED context."""
    return lift(np.array([value], dtype=object), EXTENDED)[0]


def _float(x) -> tuple:
    return "float", float(x).hex()


def _complex(re, im) -> tuple:
    return "complex", float(re).hex(), float(im).hex()


def _mpf(fields) -> tuple:
    return "mpf", fields


def _mpc(re, im) -> tuple:
    return "mpc", (re, im)


def _fraction(x) -> tuple:
    x = Fraction(x)
    return "Fraction", x.numerator, x.denominator


def _refused(kind: str) -> dict:
    return {mode: (TypeError, f"cannot use {kind} value in {mode.value} mode")
            for mode in PrecisionMode}


def _cell(result: np.ndarray, mode: PrecisionMode) -> tuple:
    """The one entry of ``result`` in the form of the expected cells,
    after checking the array's type: float64 or complex128 in DOUBLE, an
    object array of the mode's number type in the others."""
    x = result[0]
    if mode is DOUBLE:
        assert result.dtype in (np.float64, np.complex128)
        if result.dtype == np.complex128:
            return _complex(x.real, x.imag)
        return _float(x)
    assert result.dtype == object
    if mode is RATIONAL:
        assert type(x) is Fraction
        return _fraction(x)
    if hasattr(x, "_mpc_"):
        assert type(x) is type(_own(1j))
        return "mpc", x._mpc_
    assert type(x) is type(_own(1))
    return "mpf", x._mpf_


THIRD = CTX.mpf(1) / 3
CALLER_MPF = mpmath.mpf(1) / 3
CALLER_MPC = mpmath.mpc(1, 2) / 3
LONG_THIRD = np.longdouble(1) / 3
LONG_FRACTION = Fraction(*LONG_THIRD.as_integer_ratio())
F16, F32 = np.float16(0.1), np.float32(0.1)
C64 = np.complex64(0.1 + 0.2j)

# (id, value or a callable making it, {mode: expected cell or (error, message)})
ROWS = [
    ("int", 3, {DOUBLE: _float(3.0), EXTENDED: _mpf(_once(3)),
                RATIONAL: _fraction(3)}),
    ("int rounded", 2 ** 53 + 1, {
        DOUBLE: _float(2.0 ** 53), EXTENDED: _mpf(_once(2 ** 53 + 1)),
        RATIONAL: _fraction(2 ** 53 + 1)}),
    ("int beyond float64", -10 ** 400, {
        DOUBLE: (ConditioningError, BEYOND),
        EXTENDED: _mpf(_once(-10 ** 400)), RATIONAL: _fraction(-10 ** 400)}),
    ("bool", True, {DOUBLE: _float(1.0), EXTENDED: _mpf(_once(1)),
                    RATIONAL: _fraction(1)}),
    ("float", 0.1, {DOUBLE: _float(0.1), EXTENDED: _mpf(_once(0.1)),
                    RATIONAL: _fraction(0.1)}),
    ("float +0", 0.0, {DOUBLE: _float(0.0), EXTENDED: _mpf(_once(0)),
                       RATIONAL: _fraction(0)}),
    ("float -0", -0.0, {DOUBLE: _float(-0.0), EXTENDED: _mpf(_once(0)),
                        RATIONAL: _fraction(0)}),
    ("float subnormal", 5e-324, {
        DOUBLE: _float(5e-324), EXTENDED: _mpf(_once(5e-324)),
        RATIONAL: _fraction(5e-324)}),
    ("float inf", math.inf, {
        DOUBLE: _float(math.inf), EXTENDED: _mpf(CTX.mpf("inf")._mpf_),
        RATIONAL: (ConditioningError, INF_OR_NAN)}),
    ("float -inf", -math.inf, {
        DOUBLE: _float(-math.inf), EXTENDED: _mpf(CTX.mpf("-inf")._mpf_),
        RATIONAL: (ConditioningError, INF_OR_NAN)}),
    ("float nan", math.nan, {
        DOUBLE: _float(math.nan), EXTENDED: _mpf(CTX.mpf("nan")._mpf_),
        RATIONAL: (ConditioningError, INF_OR_NAN)}),
    ("complex", 1 + 2j, {
        DOUBLE: _complex(1.0, 2.0), EXTENDED: _mpc(_once(1), _once(2)),
        RATIONAL: _refused("complex")[RATIONAL]}),
    ("Fraction", Fraction(1, 3), {
        DOUBLE: _float(1 / 3), EXTENDED: _mpf(THIRD._mpf_),
        RATIONAL: _fraction(Fraction(1, 3))}),
    ("Fraction beyond float64", Fraction(10 ** 400, 3), {
        DOUBLE: (ConditioningError, BEYOND),
        EXTENDED: _mpf(_once(Fraction(10 ** 400, 3))),
        RATIONAL: _fraction(Fraction(10 ** 400, 3))}),
    ("caller mpf", CALLER_MPF, {
        DOUBLE: _float(1 / 3), EXTENDED: _mpf(CALLER_MPF._mpf_),
        RATIONAL: _refused("mpf")[RATIONAL]}),
    ("caller mpc", CALLER_MPC, {
        DOUBLE: _complex(1 / 3, 2 / 3), EXTENDED: ("mpc", CALLER_MPC._mpc_),
        RATIONAL: _refused("mpc")[RATIONAL]}),
    ("own mpf", lambda: _own(Fraction(1, 3)), {
        DOUBLE: _float(1 / 3), EXTENDED: _mpf(THIRD._mpf_),
        RATIONAL: _refused("mpf")[RATIONAL]}),
    ("own mpc", lambda: _own(1 - 2j), {
        DOUBLE: _complex(1.0, -2.0), EXTENDED: _mpc(_once(1), _once(-2)),
        RATIONAL: _refused("mpc")[RATIONAL]}),
    ("np.int64", np.int64(-7), {
        DOUBLE: _float(-7.0), EXTENDED: _mpf(_once(-7)),
        RATIONAL: _fraction(-7)}),
    ("np.uint64", np.uint64(2 ** 64 - 1), {
        DOUBLE: _float(2.0 ** 64), EXTENDED: _mpf(_once(2 ** 64 - 1)),
        RATIONAL: _fraction(2 ** 64 - 1)}),
    ("np.bool_", np.True_, {DOUBLE: _float(1.0), EXTENDED: _mpf(_once(1)),
                            RATIONAL: _fraction(1)}),
    ("np.float16", F16, {
        DOUBLE: _float(F16), EXTENDED: _mpf(_once(float(F16))),
        RATIONAL: _fraction(float(F16))}),
    ("np.float32", F32, {
        DOUBLE: _float(F32), EXTENDED: _mpf(_once(float(F32))),
        RATIONAL: _fraction(float(F32))}),
    ("np.float32 inf", np.float32("inf"), {
        DOUBLE: _float(math.inf),
        EXTENDED: _mpf(CTX.mpf("inf")._mpf_),
        RATIONAL: (ConditioningError, INF_OR_NAN)}),
    ("np.float16 nan", np.float16("nan"), {
        DOUBLE: _float(math.nan), EXTENDED: _mpf(CTX.mpf("nan")._mpf_),
        RATIONAL: (ConditioningError, INF_OR_NAN)}),
    ("np.float64", np.float64(0.1), {
        DOUBLE: _float(0.1), EXTENDED: _mpf(_once(0.1)),
        RATIONAL: _fraction(0.1)}),
    ("np.longdouble", LONG_THIRD, {
        DOUBLE: _float(LONG_FRACTION), EXTENDED: _mpf(_once(LONG_FRACTION)),
        RATIONAL: _fraction(LONG_FRACTION)}),
    ("np.longdouble -inf", np.longdouble("-inf"), {
        DOUBLE: _float(-math.inf),
        EXTENDED: _mpf(CTX.mpf("-inf")._mpf_),
        RATIONAL: (ConditioningError, INF_OR_NAN)}),
    ("np.float64 inf", np.float64("inf"), {
        DOUBLE: _float(math.inf), EXTENDED: _mpf(CTX.mpf("inf")._mpf_),
        RATIONAL: (ConditioningError, INF_OR_NAN)}),
    ("np.complex64", C64, {
        DOUBLE: _complex(C64.real, C64.imag),
        EXTENDED: _mpc(_once(float(C64.real)), _once(float(C64.imag))),
        RATIONAL: _refused("complex64")[RATIONAL]}),
    ("np.clongdouble", LONG_THIRD - 1j * LONG_THIRD, {
        DOUBLE: _complex(float(LONG_FRACTION), -float(LONG_FRACTION)),
        EXTENDED: _mpc(_once(LONG_FRACTION), _once(-LONG_FRACTION)),
        RATIONAL: _refused("clongdouble")[RATIONAL]}),
    ("np.clongdouble beyond float64", np.clongdouble(np.longdouble("1e400")), {
        DOUBLE: (ConditioningError, BEYOND),
        EXTENDED: _mpc(_once(Fraction(*np.longdouble("1e400").as_integer_ratio())),
                       _once(0)),
        RATIONAL: _refused("clongdouble")[RATIONAL]}),
    ("str", "1", _refused("str")),
    ("Decimal", Decimal(1), _refused("Decimal")),
    ("None", None, _refused("NoneType")),
]


@pytest.mark.parametrize("mode", list(PrecisionMode), ids=lambda m: m.value)
@pytest.mark.parametrize("value, cells", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_each_kind_enters_each_mode_by_the_table(value, cells, mode):
    value = value() if callable(value) else value
    entry = np.array([value], dtype=object)
    want = cells[mode]
    if isinstance(want[0], type):
        with pytest.raises(want[0]) as info:
            lift(entry, mode)
        assert type(info.value) is want[0] and str(info.value) == want[1]
    else:
        assert _cell(lift(entry, mode), mode) == want


@pytest.mark.parametrize("value, want", [
    (10 ** 400, math.inf), (-10 ** 400, -math.inf),
    (Fraction(10 ** 400, 3), math.inf), (Fraction(-10 ** 400, 3), -math.inf),
    (Fraction(1, 3), 1 / 3), (2 ** 53 + 1, 2.0 ** 53),
    (CALLER_MPF, 1 / 3), (mpmath.mpf("-1e400"), -math.inf)],
    ids=["int", "-int", "Fraction", "-Fraction", "finite Fraction",
         "rounded int", "mpf", "mpf beyond float64"])
def test_the_exit_gives_inf_beyond_float64(value, want):
    assert _float64(value).hex() == want.hex()
    values = np.array([value, Fraction(1, 2)], dtype=object)
    got = _float64(values)
    assert got.dtype == np.float64
    assert [x.hex() for x in got.tolist()] == [want.hex(), "0x1.0000000000000p-1"]


def test_the_double_entry_refuses_what_the_exit_makes_inf():
    with pytest.raises(ConditioningError) as info:
        lift([0.5, Fraction(10 ** 400, 3)], DOUBLE)
    assert str(info.value) == BEYOND
    co = JacobiCoefficients.from_arrays([1, 10 ** 400], [0, 0])
    with pytest.raises(ConditioningError) as info:
        eval_p_all(co, 2, 0.5)
    assert str(info.value) == (
        "coefficient a_1 is beyond the float64 range (about 1.8e308) of "
        "p_n(z) and q_n(z) in every precision mode")


@pytest.mark.parametrize("bad", [
    math.inf, -math.inf, math.nan, np.float32("inf"), np.longdouble("nan")],
    ids=["inf", "-inf", "nan", "float32 inf", "longdouble nan"])
def test_rational_data_routes_refuse_a_float_inf_or_nan(bad):
    # Python's OverflowError or ValueError from Fraction() escaped
    for route in (jb.recover_from_response, jb.connecting_from_response):
        with pytest.raises(ConditioningError) as info:
            route([1, bad, 2], 2, RATIONAL)
        assert str(info.value) == INF_OR_NAN, route.__name__


def test_double_keeps_a_narrow_float_inf_in_any_array():
    # an object array refused the inf that a float32 array kept
    for dtype in (np.float32, np.longdouble):
        values = [dtype(1), dtype("-inf")]
        got = lift(np.array(values, dtype=object), DOUBLE)
        assert got.tobytes() == lift(np.array(values, dtype=dtype),
                                     DOUBLE).tobytes()
        assert got.tolist() == [1.0, -math.inf]


# A value that is no number, as a datum, a control value or a coefficient,
# is refused alike in every mode.
NON_NUMBERS = [("str", "1"), ("Decimal", Decimal(1)), ("NoneType", None)]


def _routes(bad, mode):
    data = [1, 0, bad, 0, 2]

    def family(size):
        return JacobiCoefficients.from_arrays([1, bad] + [1] * (size - 2),
                                              [0.5] * size)

    return {
        "recover_from_response": lambda: jb.recover_from_response(data, 3, mode),
        "connecting_from_response": lambda: jb.connecting_from_response(
            data, 3, mode),
        "solve_finite": lambda: jb.solve_finite(
            JacobiCoefficients.free(), 3, [1, bad], 3, mode),
        "response_vector": lambda: jb.response_vector(family(3), 3, mode),
        "classify": lambda: jb.classify(family(5), 4, mode),
    }


@pytest.mark.parametrize("kind, bad", NON_NUMBERS, ids=[k for k, _ in NON_NUMBERS])
def test_every_mode_refuses_a_non_number_alike(kind, bad):
    for mode in PrecisionMode:
        for name, route in _routes(bad, mode).items():
            with pytest.raises(TypeError) as info:
                route()
            assert str(info.value) == \
                f"cannot use {kind} value in {mode.value} mode", name
    # the polynomial routes compute in float64 in every mode
    co = JacobiCoefficients.from_arrays([1, bad, 0.5], [0, 0, 0])
    with pytest.raises(TypeError) as info:
        eval_p_all(co, 3, 0.5)
    assert str(info.value) == f"cannot use {kind} value in double mode"


def test_a_numpy_bool_reads_as_the_bool_in_every_mode():
    entries = np.array([np.True_, np.False_, 2], dtype=object)
    for mode in PrecisionMode:
        got = lift(entries, mode)
        assert got.tolist() == lift([True, False, 2], mode).tolist() == [1, 0, 2]
        assert [type(x) for x in got.tolist()] == [
            type(x) for x in lift([True, False, 2], mode).tolist()]


@pytest.mark.parametrize("bad", ["1", Decimal(1), None, object()],
                         ids=["str", "Decimal", "None", "object"])
def test_validation_reports_a_non_number_and_never_raises(bad):
    for a, b, issue in (([1, bad, 1], [0, 0, 0], "a_1 is not finite"),
                        ([1, 1, 1], [0, bad, 0], "b_2 is not finite")):
        report = validate_coefficients(JacobiCoefficients.from_arrays(a, b))
        assert not report.valid and report.issues == (issue,)
