"""The precision backend.

EXTENDED values carry their own 50 digits, whatever mpmath.mp says:
integer data below 10^50 make 50-digit arithmetic exact, so a result
computed at 50 digits equals the exact integer reference, while one
computed at mpmath's default 15 digits does not.  The eigenvalue
extremes of nested blocks, read off the modified-Chebyshev recurrence,
are checked against per-block eigen-solves, a high-precision eigensolver
and, bit for bit, against the factor-and-invert route they replace.  The
RATIONAL recurrence on integer rows is checked, numerator and
denominator, against the array recurrence run on the same Fractions;
the EXTENDED one must err no more than rows of mpf against the exact
recurrence of the values it is given.  The largest eigenvalue of a
block is checked against a 60-digit eigensolver, and the mantissas read
off the mpf fields, bit for bit, against mpmath's frexp.  The dot
product of the solve loop is checked against the exact sum of its terms
in Fractions, rounded once, also where two terms cancel and leave one
more than 2 * prec bits below them, which mpmath's fdot drops; its
matrix form, which the factorization uses, is checked row by row the
same way.  The sweeps, the residual products and the refined solution
of ``gram_solve`` on the integer form are checked bit for bit against
the fdot sweeps they replace, and on the columns the sweep hands the
Krein route against the matrix of mpf cells, each cell rounded as
``_round`` rounds it.  The orthonormal tables of symmetric
measures, built on one parity, are checked bit for bit against the
stride-one builder they replace.  The tables of the object modes, built
on Python ints, are checked byte for byte against the frexp tables of
the mpf rows they replace, and must err no more than those rows against
the exact table of the same values.  The DOUBLE factor is checked bit
for bit against scipy's Cholesky, and the substitution sweeps of the
DOUBLE solves against scipy's triangular solves.  A Fraction lifted to
EXTENDED is checked against mpmath's correctly rounded quotient.
"""

import ast
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp
from mpmath.ctx_mp_python import PythonMPContext

from jacobi_bc import (
    ConditioningError,
    ConditioningWarning,
    JacobiCoefficients,
    NotAMomentSequenceError,
    PrecisionMode,
    apply_response,
    build_hankel,
    circle_bound_connecting,
    classify,
    connecting_eig_sequences,
    connecting_from_response,
    control_operator,
    gram_from_control,
    hankel_min_eigs,
    kernel_finite,
    krein_solve,
    recover_from_moments,
    recover_from_response,
    response_to_moments,
    response_vector,
    solve_finite,
)
from jacobi_bc import _multiprec
from jacobi_bc.debranges import KreinSolution, _krein_rhs
from jacobi_bc.dynamics import _gram_upper
from jacobi_bc._multiprec import (
    _EXTENDED,
    _ZERO_EXP,
    EXTENDED_DPS,
    _array_rows,
    _emitted,
    _finite,
    _enter,
    _frexp_table,
    _Ints,
    _leading_top_eigs,
    _min_eigs,
    _norm,
    _orthonormal_ints,
    _orthonormal_rows,
    _orthonormal_table,
    _plus_basis_shift,
    _read,
    _round,
    _rounded,
    _top_eigenvalue,
    dot,
    gram_solve,
    leading_eig_extremes,
    lift,
    modified_chebyshev,
    mp_pd_solve,
    pd_factor,
    sym_eigenvalues,
)

from conftest import random_coefficients, report_fields, semicircle_moments

EXTENDED = PrecisionMode.EXTENDED
RATIONAL = PrecisionMode.RATIONAL
MODES = list(PrecisionMode)
GEO3 = JacobiCoefficients.geometric(3)


def test_apply_response_computes_at_50_digits():
    horizon = 16
    control = list(range(1, horizon + 1))
    exact_r = response_vector(GEO3, horizon, RATIONAL).as_array()
    reference = np.convolve(exact_r, control)[:horizon]
    assert max(abs(v) for v in reference) > 2 ** 53
    got = apply_response(response_vector(GEO3, horizon, EXTENDED), control,
                         precision=EXTENDED)
    assert list(got) == list(reference)


def test_control_operator_apply_computes_at_50_digits():
    horizon = 12
    control = list(range(1, horizon + 1))
    reference = control_operator(GEO3, horizon, RATIONAL).apply(control)
    assert max(abs(v) for v in reference) > 2 ** 53
    got = control_operator(GEO3, horizon, EXTENDED).apply(control)
    assert list(got) == list(reference)


def _extended_outputs(rng_seed):
    rng = np.random.default_rng(rng_seed)
    co = random_coefficients(rng, 8)
    moments = response_to_moments(response_vector(co, 15)).as_array()
    report = classify(JacobiCoefficients.geometric(2), 8, EXTENDED)
    rec = recover_from_moments(moments, 8, EXTENDED)
    return report_fields(report), rec.a.tolist(), rec.b.tolist(), rec.residual


def test_results_ignore_the_callers_precision():
    with mpmath.workdps(15):
        low = _extended_outputs(5)
        assert mpmath.mp.dps == 15
    with mpmath.workdps(100):
        high = _extended_outputs(5)
        assert mpmath.mp.dps == 100
    assert low == high


@pytest.mark.parametrize("dps", [15, 100])
def test_extended_calls_leave_mp_unchanged(dps):
    co = random_coefficients(np.random.default_rng(7), 6)
    calls = [
        lambda: response_vector(co, 11, EXTENDED),
        lambda: control_operator(co, 6, EXTENDED),
        lambda: krein_solve(gram_from_control(co, 6, EXTENDED), 1j, EXTENDED),
        lambda: kernel_finite(co, 1j, 0.5, 6, method="krein",
                              precision=EXTENDED),
        lambda: recover_from_response(response_vector(co, 11), 6, EXTENDED),
        lambda: hankel_min_eigs(response_to_moments(
            response_vector(co, 11), EXTENDED), 6, EXTENDED),
        lambda: classify(JacobiCoefficients.geometric(2), 5, EXTENDED),
    ]
    with mpmath.workdps(dps):
        prec = mpmath.mp.prec
        for call in calls:
            call()
            assert (mpmath.mp.dps, mpmath.mp.prec) == (dps, prec)


def _per_block_extremes(matrix, precision):
    ends = [sym_eigenvalues(matrix[:n, :n], precision)[[0, -1]]
            for n in range(1, matrix.shape[0] + 1)]
    return np.array(ends).T


def _gram_matrix(nu, size, shift, precision=PrecisionMode.DOUBLE):
    """S_size of moments (shift 0), corner-top C_size of a response (1)."""
    if shift:
        return connecting_from_response(nu, size, precision).matrix
    return build_hankel(nu, size, precision).matrix


@pytest.mark.parametrize("precision", MODES)
def test_extremes_match_per_block_eigen_solves(rng, precision):
    # the response and the moments of one genuine family
    size = 6
    co = random_coefficients(rng, size, (0.8, 1.2), (-0.2, 0.2))
    r = response_vector(co, 2 * size - 1).as_array()
    for shift, nu in ((1, r), (0, response_to_moments(r).as_array())):
        matrix = _gram_matrix(nu, size, shift)
        got = leading_eig_extremes(matrix, nu, shift, precision)
        want = _per_block_extremes(matrix, precision)
        assert np.allclose(got, want, rtol=1e-12, atol=0), shift


@pytest.mark.parametrize("precision", MODES)
def test_indefinite_matrix_gets_the_per_block_extremes(precision):
    # leading block 1 is positive definite, block 2 is not: no measure
    # has these moments or this response
    for shift, nu in ((0, [1, 0, -1, 0, 1]), (1, [1, 0, -2, 0, 1])):
        matrix = _gram_matrix(nu, 3, shift)
        mins, maxs = leading_eig_extremes(matrix, nu, shift, precision)
        want_mins, want_maxs = _per_block_extremes(matrix, precision)
        assert list(mins) == list(want_mins), shift
        assert list(maxs) == list(want_maxs), shift
        assert mins[0] > 0 > mins[1]


def _factored_min_eigs(matrix):
    """lambda_min of every leading block by factor and invert, in mpf:
    A = L diag(d) L^T, P = diag(d)^-1/2 L^-1 by O(n^3) row-wise
    triangular inversion, lambda_min(A_n) = 1 / ||P_n||^2."""
    work = lift(matrix, EXTENDED)
    low, piv = pd_factor(work)
    inv = np.eye(work.shape[0], dtype=object)
    for i in range(1, work.shape[0]):
        inv[i, :i] = -(low[i, :i] @ inv[:i, :i])
    top, exp = _leading_top_eigs(
        [_frexp_table(inv * (piv ** -0.5)[:, None])], gram=True)[0]
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(1 / top, -exp)


def _carleman(p):
    return JacobiCoefficients.from_arrays([(n + 1) ** p for n in range(70)],
                                          [0] * 70)


@pytest.mark.parametrize("size", [24, 30])
@pytest.mark.parametrize("coeffs", [
    JacobiCoefficients.geometric(1.5), JacobiCoefficients.geometric(2), GEO3,
    _carleman(0.5), _carleman(0.75), _carleman(1)],
    ids=["geometric1.5", "geometric2", "geometric3",
         "carleman0.5", "carleman0.75", "carleman1"])
def test_recurrence_equals_the_factorization_bit_for_bit(coeffs, size):
    r = response_vector(coeffs, 2 * size - 1, EXTENDED).as_array()
    s = response_to_moments(r, EXTENDED).as_array()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        lam = hankel_min_eigs(s, size, EXTENDED)
    beta, _ = connecting_eig_sequences(r, size, EXTENDED)
    assert list(lam) == list(_factored_min_eigs(
        _gram_matrix(s, size, 0, EXTENDED)))
    assert list(beta) == list(_factored_min_eigs(
        _gram_matrix(r, size, 1, EXTENDED)))


def test_tiny_lambda_matches_a_high_precision_oracle():
    # the accuracy limit of the monomial recurrence: the free family's
    # S_33 is the first with lambda_N below 1e-12 (4.15e-13)
    size = 33
    moments = semicircle_moments(2 * size - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        lam = hankel_min_eigs(moments, size, EXTENDED)
    assert lam[-1] < 1e-12 <= lam[-2]
    oracle = mpmath.MPContext()
    oracle.dps = 8 * EXTENDED_DPS
    # from the integer moments: Catalan numbers past 2^53 lose digits
    # in float64
    want = min(oracle.eigsy(oracle.matrix(
        [[moments[i + j] for j in range(size)] for i in range(size)]),
        eigvals_only=True))
    assert abs(lam[-1] / float(want) - 1) <= 1e-14


def test_hankel_min_eigs_match_a_high_precision_oracle():
    # S_24 of geometric(3) has norm ~1e263 and lambda_min ~0.89: past the
    # EXTENDED noise floor, and beyond what a 50-digit eigensolver resolves
    size = 24
    moments = response_to_moments(
        response_vector(GEO3, 2 * size - 1, RATIONAL), RATIONAL).as_array()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        lam = hankel_min_eigs(moments, size, EXTENDED)
    oracle = mpmath.MPContext()
    oracle.dps = 8 * EXTENDED_DPS
    hankel = build_hankel(moments, size, RATIONAL).matrix
    want = [float(min(oracle.eigsy(oracle.matrix(
                [[oracle.mpf(v.numerator) / v.denominator for v in row]
                 for row in hankel[:n, :n].tolist()]), eigvals_only=True)))
            for n in range(1, size + 1)]
    assert np.allclose(lam, want, rtol=1e-12, atol=0)


def test_extremes_of_blocks_beyond_the_float_range():
    r = response_vector(GEO3, 79, RATIONAL).as_array()
    top = connecting_from_response(r, 40, RATIONAL).matrix
    assert max(top.ravel()) > 10 ** 308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta, _ = leading_eig_extremes(top, r, 1, EXTENDED)
    assert np.all(np.isfinite(beta)) and np.all(beta > 0)
    # geometric(3) is limit-circle: beta_T stays above the circle bound
    assert beta[-1] >= float(circle_bound_connecting(GEO3, 60)) - 1e-6
    assert np.all(np.diff(beta) <= 1e-12)


def test_lift_keeps_extended_values_bit_for_bit():
    values = response_vector(GEO3, 15, EXTENDED).as_array()
    before = [v._mpf_ for v in values]
    lifted = lift(values, EXTENDED)
    assert [v._mpf_ for v in lifted] == before
    # a fresh array: writing into it leaves the caller's array alone
    assert lifted is not values
    lifted[:] = 0
    assert [v._mpf_ for v in values] == before


@pytest.mark.parametrize("values", [[1, 3 ** 40], [0.5, 3 ** 40],
                                    [[1, 2 ** 63 + 1], [0.25, 3]]])
def test_lift_keeps_ints_numpy_would_round(values):
    # numpy makes each list float64, which rounds 3**40 by -33 and
    # 2**63 + 1 by 1; the exact modes read the numbers themselves, and
    # DOUBLE rounds each int as float() does
    flat = np.array(values, dtype=object).ravel().tolist()
    for precision in (EXTENDED, PrecisionMode.RATIONAL):
        got = lift(values, precision)
        assert got.shape == np.shape(values)
        assert got.ravel().tolist() == flat
    double = lift(values, PrecisionMode.DOUBLE)
    assert double.dtype == float
    assert double.ravel().tolist() == [float(x) for x in flat]


@pytest.mark.parametrize("value", [
    10 ** 400, Fraction(-10 ** 400, 3), mpmath.mpf("1e400"),
    mpmath.mpf("-inf"), lambda: _enter(Fraction(10 ** 400), EXTENDED)],
    ids=["int", "Fraction", "mpf", "mpf infinity", "EXTENDED mpf"])
def test_double_refuses_every_value_beyond_float64(value):
    # an mpf beyond float64 was lifted to inf; the one entry rule refuses
    # it as it refuses an int or a Fraction
    value = value() if callable(value) else value
    with pytest.raises(ConditioningError, match="exceeds double precision"):
        lift([0.5, value], PrecisionMode.DOUBLE)


def test_double_keeps_a_float_inf_and_rounds_an_int_once():
    # a float is taken as it is, whatever its value
    got = lift([math.inf, 3 ** 40], PrecisionMode.DOUBLE)
    assert got.tolist() == [math.inf, float(3 ** 40)]


def test_double_enters_a_complex_entry_by_its_parts():
    # an object array holding a complex raised a bare TypeError
    co = JacobiCoefficients.from_arrays([1, 1, 1], [0, 0, 0])
    got = solve_finite(co, 3, [2 ** 60 + 1, 1j], 3).values
    want = solve_finite(co, 3, [float(2 ** 60 + 1), 1j], 3).values
    assert got.dtype == complex and got.tobytes() == want.tobytes()
    lifted = lift([Fraction(1, 3), mpmath.mpc(0.5, -2 ** 70)],
                  PrecisionMode.DOUBLE)
    assert lifted.dtype == complex
    assert lifted.tolist() == [1 / 3, complex(0.5, -2.0 ** 70)]
    with pytest.raises(ConditioningError, match="exceeds double precision"):
        lift([1, mpmath.mpc(1, mpmath.mpf("1e400"))], PrecisionMode.DOUBLE)


@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_double_refuses_a_long_double_beyond_float64(dtype):
    # a cast made it inf with only numpy's RuntimeWarning; the value is
    # finite: np.clongdouble("1e400") would be inf+0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError,
                           match="exceeds double precision"):
            lift(np.array([dtype(np.longdouble("1e400"))]),
                 PrecisionMode.DOUBLE)
        got = lift(np.array([dtype("0.1"), dtype(3)]), PrecisionMode.DOUBLE)
    assert got.dtype == (complex if dtype is np.clongdouble else float)
    assert got.tolist() == [float(np.longdouble("0.1")), 3.0]


def test_double_casts_float_and_complex_arrays_as_they_are():
    floats = np.random.default_rng(2).normal(size=7) * 1e300
    for arr in (floats, floats + 1j * floats[::-1]):
        lifted = lift(arr, PrecisionMode.DOUBLE)
        assert lifted.dtype == arr.dtype and lifted.tobytes() == arr.tobytes()


def test_double_lift_copies_once_and_never_aliases():
    values = [float(k) for k in range(2048)]
    lift(values, PrecisionMode.DOUBLE)      # a first call may allocate more
    tracemalloc.start()
    try:
        lift(values, PrecisionMode.DOUBLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2048 * 8
    for arr in (np.array(values), np.array(values)[::2], np.arange(5)):
        lifted = lift(arr, PrecisionMode.DOUBLE)
        assert not np.shares_memory(lifted, arr)
        assert lifted.dtype == float and list(lifted) == list(arr)


def test_lift_rehomes_a_caller_mpf_with_its_mantissa():
    with mpmath.workdps(100):
        third = mpmath.mpf(1) / 3
    lifted = lift([third], EXTENDED)[0]
    assert type(lifted) is not type(third)
    assert type(lifted) is type(lift([1], EXTENDED)[0])
    assert lifted._mpf_ == third._mpf_


@settings(max_examples=300)
@given(value=st.builds(lambda n, d, e: Fraction(n, d) * Fraction(10) ** e,
                       st.integers(-(1 << 600), 1 << 600),
                       st.integers(1, 1 << 600), st.integers(-400, 400)))
@example(value=Fraction(0))
@example(value=Fraction(-1, 3))
# rounding 2^170 + 1 to the precision first loses the 1
@example(value=Fraction(2 ** 170 + 1, 3))
@example(value=Fraction(-(10 ** 400), 3))
@example(value=Fraction(1, 3 * 10 ** 400))
def test_as_mpf_rounds_a_fraction_once(value):
    assert _enter(value, EXTENDED)._mpf_ == _rounded_once(value)


@settings(max_examples=300)
@given(value=st.floats())
@example(value=0.0)
@example(value=-0.0)
@example(value=5e-324)
@example(value=-2.2250738585072009e-308)    # the largest subnormal
@example(value=sys.float_info.max)
@example(value=-sys.float_info.max)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=math.nan)
def test_as_mpf_converts_a_float_as_the_context_does(value):
    # the entry reads a float's fields straight from it; mpf(x) reaches
    # the same conversion after its argument dispatch
    assert _enter(value, EXTENDED)._mpf_ == _multiprec._EXTENDED.mpf(value)._mpf_


def test_as_mpf_keeps_the_mantissa_of_an_mpc_of_another_context():
    value = mpmath.mpc(mpmath.mpf(1) / 3, -2)
    got = _enter(value, EXTENDED)
    assert type(got) is _multiprec._MPC and got._mpc_ == value._mpc_


@pytest.mark.parametrize("value", ["1.5", Decimal("0.1"), None])
def test_as_mpf_refuses_a_type_it_does_not_read(value):
    # RATIONAL refuses the same values
    with pytest.raises(TypeError, match="in extended mode"):
        _enter(value, EXTENDED)
    with pytest.raises(TypeError, match="in rational mode"):
        lift(np.array([value], dtype=object), RATIONAL)


def test_extended_lifts_complex_controls():
    co = JacobiCoefficients.geometric(2)
    control = [1 + 1j, 0]
    want = solve_finite(co, 3, control, 3).values
    got = solve_finite(co, 3, control, 3, EXTENDED).values
    assert np.max(np.abs(got.astype(complex) - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(TypeError, match="cannot use complex value"):
        solve_finite(co, 3, control, 3, RATIONAL)


def _overflowed_connecting_block():
    # the sums of a response of 1e308 entries pass the float64 range
    with np.errstate(over="ignore"):
        conn = connecting_from_response([1e308, 0, 1e308, 0, 1e308], 3)
    return conn.matrix


@pytest.mark.parametrize("call", [
    lambda m: pd_factor(m),
    lambda m: sym_eigenvalues(m, PrecisionMode.DOUBLE),
    # the sequence is finite: the matrix alone is refused, before any work
    lambda m: leading_eig_extremes(m, np.ones(2 * len(m) - 1), 0,
                                   PrecisionMode.DOUBLE),
    lambda m: krein_solve(m, 1j),
], ids=["pd_factor", "sym_eigenvalues", "leading_eig_extremes", "krein_solve"])
@pytest.mark.parametrize("matrix", [np.array([[2.0, 1.0], [1.0, np.inf]]),
                                    np.array([[2.0, 1.0], [1.0, np.nan]]),
                                    _overflowed_connecting_block()],
                         ids=["inf", "nan", "overflowed_block"])
def test_double_refuses_non_finite_matrices(call, matrix):
    assert not np.isfinite(matrix).all()
    with pytest.raises(ConditioningError, match="--precision extended"):
        call(matrix)


def test_no_mpf_formats_an_array(monkeypatch):
    """An mpf left of an object array makes mpmath try to convert the
    array: ``npconvert`` raises TypeError with the repr of every entry
    before numpy's reflected operator takes over.  The EXTENDED pipeline
    keeps its arrays on the left, so no array ever reaches it."""
    arrays = []
    npconvert = PythonMPContext.npconvert

    def counting(ctx, x):
        if isinstance(x, np.ndarray):
            arrays.append(x.shape)
        return npconvert(ctx, x)

    monkeypatch.setattr(PythonMPContext, "npconvert", counting)
    co = random_coefficients(np.random.default_rng(16), 16)
    r = response_vector(co, 31)
    recover_from_response(r, 16, EXTENDED)
    recover_from_moments(response_to_moments(r).as_array(), 16, EXTENDED)
    krein_solve(gram_from_control(co, 16, EXTENDED), 0.5 + 1j, EXTENDED)
    kernel_finite(co, 0.5 + 1j, -0.2, 16, method="krein", precision=EXTENDED)
    assert arrays == []


# thirds and sevenths as well as eighths: denominators no power of two holds
_DENOMINATORS = st.sampled_from([1, 3, 7, 8, 21, 24])
_POSITIVE = st.builds(Fraction, st.integers(1, 24), _DENOMINATORS)
_SIGNED = st.builds(Fraction, st.integers(-24, 24), _DENOMINATORS)


@st.composite
def _genuine_data(draw):
    """(nu, size, shift): the exact response (shift 1) or moments (0) of
    a rational family with a_n > 0 and b_n of either sign."""
    size = draw(st.integers(1, 8))
    co = JacobiCoefficients.from_arrays(
        [1] + draw(st.lists(_POSITIVE, min_size=size, max_size=size)),
        draw(st.lists(_SIGNED, min_size=size + 1, max_size=size + 1)))
    r = response_vector(co, 2 * size - 1, RATIONAL).as_array()
    if draw(st.booleans()):
        return r, size, 1
    return response_to_moments(r, RATIONAL).as_array(), size, 0


@st.composite
def _arbitrary_data(draw):
    """(nu, size, shift) with nu_0 > 0 and the rest drawn freely: most of
    these are no response and no moment sequence."""
    size = draw(st.integers(1, 6))
    rest = draw(st.lists(_SIGNED, min_size=2 * size - 2, max_size=2 * size - 2))
    return [draw(_POSITIVE)] + rest, size, draw(st.sampled_from([0, 1]))


def _chebyshev_outcome(run, nu, size, shift):
    """Every field of the recurrence's output, each number as (type,
    numerator, denominator), or the message of its LinAlgError."""
    try:
        out = run(nu, size, shift)
    except np.linalg.LinAlgError as exc:
        return str(exc)
    return [(arr.dtype, [(type(x), x.numerator, x.denominator) for x in arr])
            for arr in out]


def _integer_form(nu, size, shift):
    return modified_chebyshev(nu, size, shift, RATIONAL)


def _array_form(nu, size, shift):
    return _product_chebyshev(lift(nu[:2 * size - 1], RATIONAL), size, shift)


@settings(max_examples=60)
@given(data=st.one_of(_genuine_data(), _arbitrary_data()))
def test_integer_recurrence_equals_the_fraction_arrays(data):
    want = _chebyshev_outcome(_array_form, *data)
    assert _chebyshev_outcome(_integer_form, *data) == want


@pytest.mark.parametrize("shift", [0, 1])
def test_integer_recurrence_keeps_the_exact_fields(shift):
    co = JacobiCoefficients.from_arrays(
        [1, Fraction(2, 3), Fraction(9, 7), Fraction(1, 21)],
        [Fraction(-1, 3), Fraction(5, 7), Fraction(-3, 8), 2])
    nu = response_vector(co, 7, RATIONAL).as_array()
    if not shift:
        nu = response_to_moments(nu, RATIONAL).as_array()
    piv, alpha, beta = _integer_form(nu, 4, shift)
    # b_{k+1} = alpha_k and a_k^2 = beta_k
    assert list(alpha) == [Fraction(-1, 3), Fraction(5, 7), Fraction(-3, 8)]
    assert list(beta) == [0, Fraction(4, 9), Fraction(81, 49),
                          Fraction(1, 441)]
    assert type(beta[0]) is int
    # sigma_kk = a_1^2 ... a_k^2
    assert list(piv) == [1, Fraction(4, 9), Fraction(36, 49), Fraction(4, 2401)]


def test_integer_recurrence_refuses_a_non_positive_pivot():
    # s_2 - s_1^2 / s_0 = -1/3 - 1/49 < 0: pivot 1 of S_3
    nu = [Fraction(1), Fraction(1, 7), Fraction(-1, 3), 0, 1]
    for run in (_integer_form, _array_form):
        with pytest.raises(np.linalg.LinAlgError, match="^pivot 1 is not positive$"):
            run(nu, 3, 0)


def _product_chebyshev(row, size, shift):
    """The array recurrence as it was when it multiplied by the basis
    shift, kept verbatim as the oracle."""
    below = np.zeros(row.size + 2, dtype=row.dtype)    # sigma_{-1,l} = 0
    pivots, alpha, beta, ratio = [], [], [0], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(size):
            if k:
                row, below = (row[2:] - row[1:-1] * alpha[-1]
                              - below[2:-2] * beta[-1]
                              + shift * row[:-2]), row
                beta.append(row[0] / pivots[-1])
            if not _finite(row)[0] > 0:
                raise np.linalg.LinAlgError(f"pivot {k} is not positive")
            pivots.append(row[0])
            if k < size - 1:
                alpha.append(row[1] / row[0] - ratio)
                ratio = row[1] / row[0]
    return np.array(pivots), np.array(alpha), np.array(beta)


def _product_orthonormal_rows(sigma, alpha, beta, shift):
    """Q = diag(sigma)^-1/2 L^-1 as it was built with the product, kept
    verbatim as the oracle."""
    n = sigma.size
    coef = np.zeros((n, n), dtype=sigma.dtype)
    coef[0, 0] = 1
    for k in range(n - 1):
        nxt = coef[k + 1]
        nxt[1:k + 2] = coef[k, :k + 1]
        nxt[:k] += coef[k, 1:k + 1] * shift
        nxt[:k + 1] -= coef[k, :k + 1] * alpha[k]
        if k:
            nxt[:k] -= coef[k - 1, :k] * beta[k]
    return coef * (sigma ** -0.5)[:, None]


def _product_extremes(matrix, nu, shift, precision):
    """leading_eig_extremes of a matrix whose pivots are all positive,
    by the product forms."""
    size = matrix.shape[0]
    recurrence = _product_chebyshev(lift(nu[:2 * size - 1], precision),
                                    size, shift)
    q_top, q_exp = _leading_top_eigs(
        [_frexp_table(_product_orthonormal_rows(*recurrence, shift))],
        gram=True)[0]
    a_top, a_exp = _leading_top_eigs([_frexp_table(lift(matrix,
                                                       precision))])[0]
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(1 / q_top, -q_exp), np.ldexp(a_top, a_exp)


def _exact_bits(run, *args):
    """Every array the call returns, with the exact bits of each entry
    (float bytes, mpf ``_mpf_``, the int beta_0), or its error."""
    try:
        out = run(*args)
    except (np.linalg.LinAlgError, ConditioningError) as exc:
        return type(exc), str(exc)
    return [(arr.dtype, arr.tobytes() if arr.dtype != object
             else [getattr(v, "_mpf_", v) for v in arr]) for arr in out]


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def _double_data(draw):
    """(nu, size, shift) in float64 from ``_genuine_data``, with every zero
    of either sign: a family with b = 0 has a symmetric measure, so its
    moments alternate with zeros and alpha_k = 0 takes its sign from
    them."""
    nu, size, shift = draw(_genuine_data())
    if not shift and draw(st.booleans()):
        nu = [v if k % 2 == 0 else 0 for k, v in enumerate(nu)]
    return [draw(_SIGNED_ZERO) if v == 0 else float(v) for v in nu], size, shift


@settings(max_examples=80)
@given(data=_double_data())
def test_double_recurrence_equals_the_product_form(data):
    nu, size, shift = data
    want = _exact_bits(_product_chebyshev, lift(nu[:2 * size - 1],
                                                 PrecisionMode.DOUBLE),
                       size, shift)
    assert _exact_bits(modified_chebyshev, nu, size, shift,
                       PrecisionMode.DOUBLE) == want


_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0,
                            1e300, -1e300, 5e-324])


@st.composite
def _unchecked_rows(draw):
    """(row, size, shift): the float response (shift 1) or moments (0)
    of a positive measure on a few points, scaled by up to 1e300 so that
    later rows overflow, with some entries replaced by inf, NaN, a zero
    of either sign, a negative or an extreme value at drawn positions."""
    size = draw(st.integers(1, 9))
    shift = draw(st.sampled_from([0, 1]))
    points = draw(st.lists(st.floats(-3.0, 3.0), min_size=1,
                           max_size=size + 1))
    scale = 10.0 ** draw(st.integers(-300, 300))
    basis = [np.ones(len(points)), np.array(points)]
    while len(basis) < 2 * size - 1:
        basis.append(basis[1] * basis[-1] - shift * basis[-2])
    with np.errstate(over="ignore", invalid="ignore"):
        row = [float(np.sum(p) * scale) for p in basis[:2 * size - 1]]
    for at in draw(st.lists(st.integers(0, 2 * size - 2), max_size=3)):
        row[at] = draw(_SPECIAL)
    return np.array(row), size, shift


def _rows_outcome(row, size, shift, checked):
    """The lists ``_array_rows`` leaves, with the bits of every entry,
    and its error, if any."""
    lists = ([], [], [0])
    error = None
    try:
        _array_rows(row.copy(), size, shift, *lists, checked=checked)
    except (np.linalg.LinAlgError, ConditioningError) as exc:
        error = type(exc), str(exc)
    return error, [np.array(x).tobytes() for x in lists]


@settings(max_examples=300)
@given(case=_unchecked_rows())
@example(case=(np.array([1.0, 0.5, 2.0, 0.25, math.inf]), 3, 1))
@example(case=(np.array([1.0, 0.0, math.nan, 0.0, 2.0, 0.0, 5.0]), 4, 0))
@example(case=(np.array([1.0, 1e300, 1e300, 1e300, 1e300]), 3, 0))
@example(case=(np.array([1.0, 5.0, 1.0, 0.5, 2.0]), 3, 1))
@example(case=(np.array([-0.0]), 1, 0))
def test_unchecked_rows_equal_the_checked_run(case):
    # testing only sigma_kk, alpha_k and beta_k for inf or NaN, and
    # running the rows again checked on one, raises what testing every
    # row raises and leaves the same partial lists
    assert (_rows_outcome(*case, checked=False)
            == _rows_outcome(*case, checked=True))


@pytest.mark.parametrize("row, rows_before, error, message", [
    # the inf reaches pivot 2 unchecked; checked, row 0 already holds it
    ([1.0, 0.5, 2.0, 0.25, math.inf], 0, ConditioningError, "beyond double"),
    # row 1 overflows
    ([1.0, 1e300, 1e300, 1e300, 1e300], 1, ConditioningError,
     "beyond double"),
    # pivot 1 is 1 - 25 + 1 < 0
    ([1.0, 5.0, 1.0, 0.5, 2.0], 1, np.linalg.LinAlgError,
     "^pivot 1 is not positive$"),
])
def test_unchecked_rows_raise_the_checked_error(row, rows_before, error,
                                                message):
    pivots, alpha, beta = [], [], [0]
    with pytest.raises(error, match=message):
        _array_rows(np.array(row), 3, 1, pivots, alpha, beta)
    # beta_k of the failing row k is kept, as the checked run keeps it
    assert (pivots, alpha, len(beta)) == ([1.0] * rows_before,
                                          [row[1]] * rows_before,
                                          1 + rows_before)


def _exact_fraction(x):
    """An mpf (or int) as the exact Fraction of its value."""
    if hasattr(x, "_mpf_"):
        return Fraction(*libmp.to_rational(x._mpf_))
    return Fraction(x)


def _errors(got, exact):
    """The relative errors of sigma_kk, alpha_k and beta_k against the
    exact recurrence: componentwise for the positive sigma_kk and beta_k
    (k >= 1), and normwise, max |error| / max |alpha|, for alpha, whose
    entries can vanish.  An exact zero is matched only by a zero."""
    def ratio(diff, scale):
        if not scale:
            return 0.0 if not diff else math.inf
        return float(diff / scale)

    piv, alpha, beta = ([_exact_fraction(x) for x in arr] for arr in got)
    want_piv, want_alpha, want_beta = exact
    alpha_diff = max((abs(x - y) for x, y in zip(alpha, want_alpha)),
                     default=0)
    return (max(ratio(abs(x - y), y) for x, y in zip(piv, want_piv)),
            ratio(alpha_diff, max((abs(y) for y in want_alpha), default=0)),
            max((ratio(abs(x - y), y)
                 for x, y in zip(beta[1:], want_beta[1:])), default=0.0))


@settings(max_examples=30)
@given(data=_genuine_data())
def test_extended_recurrence_is_no_worse_than_the_product_form(data):
    """On values of a 100-digit context, whose mantissas ``lift`` keeps,
    against the exact recurrence of those values (RATIONAL, on their
    exact Fractions): the integer rows err no more in sigma_kk, alpha_k
    and beta_k than the mpf rows of the product form.  leading_eig_extremes
    feeds ``_orthonormal_table`` the same alpha_k and the roots of the
    same sigma_00 and beta_k."""
    nu, size, shift = data
    other = mpmath.MPContext()
    other.dps = 100
    nu = [other.mpf(v.numerator) / v.denominator for v in nu]
    lifted = lift(nu[:2 * size - 1], EXTENDED)
    exact = _integer_form([_exact_fraction(x) for x in lifted], size, shift)
    got = modified_chebyshev(nu, size, shift, EXTENDED)
    want = _product_chebyshev(lifted, size, shift)
    for new, old in zip(_errors(got, exact), _errors(want, exact)):
        assert new <= old
    fed = []
    with mock.patch.object(_multiprec, "_orthonormal_table",
                           side_effect=lambda *args: fed.append(args)
                           or _orthonormal_table(*args)):
        leading_eig_extremes(_gram_matrix(nu, size, shift), nu, shift,
                             EXTENDED)
    (alpha, root_beta, fed_shift), = fed
    piv, want_alpha, beta = got
    assert fed_shift == shift
    assert [x._mpf_ for x in alpha] == [x._mpf_ for x in want_alpha]
    assert ([x._mpf_ for x in root_beta]
            == [_EXTENDED.sqrt(x)._mpf_ for x in [piv[0], *beta[1:]]])


def test_extended_recovery_of_exact_moments_equals_the_rational_one():
    # a family on the 1/8 grid: the exact recovery's floats are the
    # coefficients themselves, and the EXTENDED one rounds to them
    rng = np.random.default_rng(8)
    size = 16
    co = JacobiCoefficients.from_arrays(
        [1] + [Fraction(int(k), 8) for k in rng.integers(4, 17, size)],
        [Fraction(int(k), 8) for k in rng.integers(-8, 9, size + 1)])
    moments = response_to_moments(
        response_vector(co, 2 * size - 1, RATIONAL), RATIONAL).as_array()
    exact = recover_from_moments(moments, size, RATIONAL)
    assert exact.a.tolist() == [float(x) for x in co.a_head(size)[1:]]
    got = recover_from_moments(moments, size, EXTENDED)
    assert got.a.tolist() == exact.a.tolist()
    assert got.b.tolist() == exact.b.tolist()


@pytest.mark.parametrize("nu", [[2, 0, 2, 0, 2], [2, 0, 8, 0, 33],
                                [4, 0, 0, 0, 0]])
def test_extended_rows_read_zeros_beside_large_exponents(nu):
    # a zero mpf has exponent 0, below the exponent of every nonzero
    # entry of these rows (or of their leading parts): the moments of
    # delta_-1 + delta_1, data whose S_3 is positive definite and the
    # moments of 4 delta_0
    for precision in (EXTENDED, RATIONAL):
        assert [float(x) for x in lift(nu, precision)] == nu
    size = len(nu) // 2 + 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        assert (hankel_min_eigs(nu, size, EXTENDED).tolist()
                == hankel_min_eigs(nu, size, RATIONAL).tolist())
    for horizon in range(1, size + 1):
        outcome = {}
        for precision in (EXTENDED, RATIONAL):
            try:
                got = recover_from_moments(nu[:2 * horizon - 1], horizon,
                                           precision)
                outcome[precision] = got.a.tolist(), got.b.tolist()
            except NotAMomentSequenceError as exc:
                outcome[precision] = str(exc).split(" at ")[0]
        assert outcome[EXTENDED] == outcome[RATIONAL]


def test_extended_zero_alpha_leaves_the_row_exponent():
    # symmetric data have every alpha_k = 0; its ratio must not shift
    # the next row by the bits a nonzero quotient would keep
    value, ratio = _multiprec._ratio(0, 7, -5, _multiprec._MPF)
    assert value == 0 and ratio == (0, 1, 0)


def _exact_ratio(n, d, e):
    """n / d * 2^e rounded once to EXTENDED, from its exact Fraction."""
    context = _multiprec._load_extended()
    return context.make_mpf(libmp.mpf_shift(libmp.from_rational(
        n, d, context.prec, libmp.round_nearest), e))


@settings(max_examples=200)
@given(n=st.integers(-(1 << 400), 1 << 400), d=st.integers(1, 1 << 300),
       e=st.integers(-2000, 2000))
def test_extended_ratio_rounds_its_quotient_once(n, d, e):
    # one division gives both the value, rounded once with a sticky bit
    # for the remainder, and the ratio the next row takes, cut toward
    # zero to at least _ROW_BITS bits
    value, (p, q, shift) = _multiprec._ratio(n, d, e, _multiprec._MPF)
    assert value._mpf_ == _exact_ratio(n, d, e)._mpf_
    assert q == 1
    if n:
        exact = Fraction(n, d) * Fraction(2) ** e
        cut = Fraction(p) * Fraction(2) ** shift
        assert abs(cut) <= abs(exact) < abs(cut) + Fraction(2) ** shift
        assert abs(p).bit_length() >= _multiprec._ROW_BITS
    else:
        assert (p, shift) == (0, 0)


def test_extended_ratio_breaks_a_tie_by_its_remainder():
    # n / 3 cut to its quotient is a tie of the EXTENDED rounding; the
    # remainder puts it above the tie, so it rounds away from zero
    context = _multiprec._load_extended()
    tie = (1 << context.prec | 1) << (_multiprec._ROW_BITS - context.prec
                                       - 1)
    for n, e in ((3 * tie + 1, 0), (-(3 * tie + 1), -9)):
        value = _multiprec._ratio(n, 3, e, _multiprec._MPF)[0]
        assert value._mpf_ == _exact_ratio(n, 3, e)._mpf_


@pytest.mark.parametrize("name", ["inf", "-inf", "nan"])
def test_extended_recurrence_refuses_inf_and_nan(name):
    # their mpf mantissa is 0, as that of zero
    nu = [1, 0, 1, 0, 1]
    for k in (0, 2, 4):
        bad = list(nu)
        bad[k] = _EXTENDED.mpf(name)
        with pytest.raises(ConditioningError, match="inf or NaN"):
            modified_chebyshev(bad, 3, 0, EXTENDED)
        with pytest.raises(ConditioningError, match="inf or NaN"):
            leading_eig_extremes(_gram_matrix(bad, 3, 0, EXTENDED), bad, 0,
                                 EXTENDED)


def _wrapped_top_eigs(arr, gram=False):
    """``_leading_top_eigs`` as mpmath's frexp and a whole-spectrum
    eigvalsh give it: the oracle of the scaling and the field reads."""
    if arr.dtype == object:
        mant, exps = np.frompyfunc(_EXTENDED.frexp, 1, 2)(arr)
    else:
        mant, exps = np.frexp(arr)
    mant = mant.astype(float)
    exps = np.where(mant == 0, _ZERO_EXP, exps.astype(np.int64))
    top = np.maximum.accumulate(np.maximum.accumulate(exps, 0), 1).diagonal()
    values = []
    for n in range(1, arr.shape[0] + 1):
        block = np.ldexp(mant[:n, :n], exps[:n, :n] - top[n - 1])
        if gram:
            block = block @ block.T
        values.append(np.linalg.eigvalsh(block)[-1])
    return np.array(values), top * (2 if gram else 1)


def _random_block(rng, n, graded):
    block = rng.standard_normal((n, n))
    block = block + block.T
    if graded:    # entries from 1 down to 1e-24, as in a Hankel block
        scale = np.logspace(0, -12, n)
        block *= scale[:, None] * scale[None, :]
    return block


@pytest.mark.parametrize("graded", [False, True], ids=["random", "graded"])
def test_top_eigenvalue_matches_a_high_precision_oracle(rng, graded):
    # a backward-stable eigensolver is accurate to a few n eps of the
    # spectral norm, which is lambda_max itself on the positive
    # semidefinite blocks the pipeline passes
    oracle = mpmath.MPContext()
    oracle.dps = 60
    eps = np.finfo(float).eps
    for n in range(1, 41):
        block = _random_block(rng, n, graded)
        ev = oracle.eigsy(oracle.matrix(block.tolist()), eigvals_only=True)
        want, norm = max(ev), max(abs(v) for v in ev)
        got = float(_top_eigenvalue(block))
        assert abs(want - got) <= 4 * n * eps * norm, n


def test_leading_top_eigs_equal_the_wrapped_route(rng):
    r = response_vector(GEO3, 79, RATIONAL).as_array()
    top = lift(connecting_from_response(r, 40, RATIONAL).matrix, EXTENDED)
    # an orthonormal table of a symmetric measure: zeros of the triangle
    # and of the parity, which the object route reads no fields of
    rows = _mpf_orthonormal_rows(lift([0] * 23, EXTENDED),
                                 lift(GEO3.a_head(24), EXTENDED), 0)
    blocks = [top, rows, _random_block(rng, 30, True),
              lift(_random_block(rng, 30, True), EXTENDED)]
    for gram in (False, True):
        # one call on the four tables, of three sizes
        joint = _leading_top_eigs([_frexp_table(arr) for arr in blocks], gram)
        for arr, got in zip(blocks, joint, strict=True):
            want = _wrapped_top_eigs(arr, gram)
            assert got[0].tobytes() == want[0].tobytes()
            assert list(got[1]) == list(want[1])


def test_leading_top_eigs_of_float_and_mpf_copies_agree():
    # zeros beside entries below 0.5: a zero's exponent must stay below
    # theirs, so every block is scaled alike in both number types
    blocks = [np.diag([1e-300, 1e-300]),
              np.array([[0.25, 0.0, 0.0], [0.0, 0.0, 0.125],
                        [0.0, 0.125, 3e-5]])]
    for block in blocks:
        for gram in (False, True):
            values, exps = _leading_top_eigs([_frexp_table(block)], gram)[0]
            mp_values, mp_exps = _leading_top_eigs(
                [_frexp_table(lift(block, EXTENDED))], gram)[0]
            assert values.tobytes() == mp_values.tobytes()
            assert list(exps) == list(mp_exps)
    values, exps = _leading_top_eigs([_frexp_table(blocks[0])])[0]
    assert list(exps) == [-996, -996]


@pytest.mark.parametrize("value", [
    0, 1, -1, 0.75, -3.5, Fraction(1, 3), -Fraction(2, 7), 10 ** 400,
    # 2^60 - 1 rounds up to a mantissa of 1.0: the 53-bit carry
    -Fraction(1, 10 ** 400), 2 ** 60 - 1, -(2 ** 60 - 1), 2 ** 53 + 1,
    (2 ** 54 - 1) * 2 ** -3000, 5e-324, 1.7976931348623157e308],
    ids=lambda v: type(v).__name__)
def test_frexp_fields_equal_mpmath_frexp(value):
    x = lift([value], EXTENDED)[0]
    mant, exp = _EXTENDED.frexp(x)
    assert _emitted(_read([x]), float)[0] == (float(mant), exp)


@pytest.mark.parametrize("name", ["inf", "-inf", "nan"])
def test_infinite_or_nan_entries_are_refused(name):
    bad = _EXTENDED.mpf(name)
    with pytest.raises(ValueError):
        _EXTENDED.frexp(bad)
    with pytest.raises(ValueError):
        _frexp_table(np.array([bad], dtype=object))
    block = lift([[1, 0], [0, 1]], EXTENDED)
    block[1, 1] = bad
    with pytest.raises(ValueError):
        _frexp_table(block)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_blocks_from_a_non_finite_entry_are_inf(monkeypatch, bad):
    # the overflowed block and every later one get inf; LAPACK never
    # sees them
    from jacobi_bc import _multiprec
    sizes = []
    top = _multiprec._top_eigenvalue
    monkeypatch.setattr(_multiprec, "_top_eigenvalue",
                        lambda block: sizes.append(block.shape[-1])
                        or top(block))
    arr = np.array([[2.0, 1.0, 0.0], [0.0, bad, 1.0], [0.0, 0.0, 3.0]])
    for gram in (False, True):
        values, exps = _leading_top_eigs([_frexp_table(arr)], gram)[0]
        assert np.ldexp(values[0], exps[0]) == (4.0 if gram else 2.0)
        assert list(values[1:]) == [np.inf, np.inf]
    assert sizes == [1, 1]


def test_gram_blocks_of_a_wide_array(rng):
    # W with fewer rows than columns and W[i, j] = 0 for i > j, as the
    # control operator of a finite family: lambda_max(W[:, :n]^T W[:, :n])
    wide = np.triu(rng.standard_normal((3, 7)))
    values, exps = _leading_top_eigs([_frexp_table(wide)], gram=True)[0]
    want = [np.linalg.eigvalsh(wide[:, :n].T @ wide[:, :n])[-1]
            for n in range(1, 8)]
    assert np.allclose(np.ldexp(values, exps), want, rtol=1e-13, atol=0)


def _one_table_at_a_time(table, gram, first):
    """``_leading_top_eigs`` of one frexp table as it ran before tables
    were solved together: one ``ldexp``, ``@`` and ``eigvalsh`` per
    block, in the order of the blocks, and inf from the first block
    holding inf or NaN on."""
    mant, exps = table
    exps = np.where(mant == 0, _ZERO_EXP, exps.astype(np.int64))
    rows, cols = mant.shape
    tops = np.array([exps[:n, :n].max() for n in range(1, cols + 1)])
    values = np.full(cols - first + 1, np.inf)
    for n in range(first, cols + 1):
        if not np.isfinite(mant[:n, :n]).all():
            break
        block = np.ldexp(mant[:n, :n], exps[:n, :n] - tops[n - 1])
        if gram:
            block = block @ block.T
        values[n - first] = np.linalg.eigvalsh(block)[-1]
    return values, tops[first - 1:] * (2 if gram else 1)


_ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300]),
    st.floats(-1e6, 1e6, allow_subnormal=False))


@st.composite
def _table_sets(draw):
    """(tables, gram, first): one to four float arrays sharing columns
    or not, some wider than tall when ``gram``, as frexp tables."""
    gram = draw(st.booleans())
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        cols = draw(st.integers(1, 7))
        rows = draw(st.integers(1, cols)) if gram else cols
        arr = np.reshape(draw(st.lists(_ENTRIES, min_size=rows * cols,
                                       max_size=rows * cols)), (rows, cols))
        if draw(st.booleans()):    # mostly finite, as the pipeline's
            arr[~np.isfinite(arr)] = 2.0
        tables.append(np.frexp(arr))
    first = draw(st.integers(1, min(t[0].shape[1] for t in tables)))
    return tables, gram, first


@settings(max_examples=150)
@given(case=_table_sets())
@example(case=([np.frexp(np.triu(np.arange(1.0, 41).reshape(5, 8)))]
               + [np.frexp(np.tril(np.arange(1.0, 26).reshape(5, 5)))] * 2,
               True, 1))
def test_tables_solved_together_equal_each_solved_alone(case):
    # the joint solve of k tables has the bits of k single-table solves:
    # blocks of one size and shape go to LAPACK as one stack
    tables, gram, first = case
    with np.errstate(over="ignore", invalid="ignore"):
        joint = _leading_top_eigs(tables, gram, first)
        alone = [_one_table_at_a_time(table, gram, first) for table in tables]
    assert len(joint) == len(tables)
    for (got_values, got_exps), (values, exps) in zip(joint, alone):
        assert got_values.tobytes() == values.tobytes()
        assert got_exps.tolist() == exps.tolist()


def test_one_eigen_solve_per_block_size(monkeypatch):
    # two square tables and one wider than tall: blocks 1..3 share their
    # shape and take one call each, blocks 4 and 5 have only the wide one
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda block: calls.append(block.shape) or
                        eigvalsh(block))
    square = np.frexp(np.tril(np.arange(1.0, 10).reshape(3, 3)))
    wide = np.frexp(np.triu(np.arange(1.0, 16).reshape(3, 5)))
    _leading_top_eigs([square, wide, square], gram=True)
    assert calls == [(3, 1, 1), (3, 2, 2), (3, 3, 3), (1, 3, 3), (1, 3, 3)]


# -- the dot product of the solve loop ----------------------------------

def _mpf_of(man, exp):
    return _EXTENDED.ldexp(_EXTENDED.mpf(man), exp)


# full 160-bit mantissas, magnitudes from 2^-600 to 2^600
_MPF = st.builds(_mpf_of, st.integers(-2 ** 160, 2 ** 160),
                 st.integers(-760, 440))
_OPERANDS = {
    "mpf": _MPF,
    "mpc": st.builds(_EXTENDED.mpc, _MPF, _MPF),
    "complex": st.builds(complex, *[st.floats(-2.0 ** 600, 2.0 ** 600)] * 2),
    "int": st.integers(-2 ** 600, 2 ** 600),
}
_BRANCHES = [("mpf", "mpf"), ("mpf", "mpc"), ("mpf", "complex"),
             ("int", "mpf")]


@st.composite
def _dot_operands(draw):
    """Two equally long lists of a branch's operand kinds, in either
    order."""
    kinds = draw(st.sampled_from(_BRANCHES))
    size = draw(st.integers(0, 64))
    lists = [draw(st.lists(_OPERANDS[k], min_size=size, max_size=size))
             for k in kinds]
    return lists[::-1] if draw(st.booleans()) else lists


def _fields(x):
    """The mpf fields of the real and imaginary part of x; ints, floats
    and complex convert exactly."""
    x = _EXTENDED.convert(x)
    return x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, libmp.fzero)


def _rational_parts(x):
    """(real, imaginary) part of x as exact Fractions."""
    return tuple(Fraction(*libmp.to_rational(f)) for f in _fields(x))


def _rounded_once(value: Fraction):
    """The mpf fields of ``value`` correctly rounded to the EXTENDED
    precision."""
    return libmp.from_rational(value.numerator, value.denominator,
                               _EXTENDED.prec, libmp.round_nearest)


def _exact_sum(u, v):
    """sum_k u_k v_k, real and imaginary part, in exact Fractions."""
    real = imag = Fraction(0)
    for a, b in zip(u, v):
        (ar, ai), (br, bi) = _rational_parts(a), _rational_parts(b)
        real += ar * br - ai * bi
        imag += ar * bi + ai * br
    return real, imag


@settings(max_examples=200)
@given(operands=_dot_operands())
# a small term that survives the cancellation of two large ones, within
# the 2 * prec bits below a partial sum that fdot keeps
@example(operands=[[_mpf_of(1, -160), _mpf_of(1, 160), _mpf_of(-1, 160)],
                   [_mpf_of(1, 0)] * 3])
@example(operands=[[_mpf_of(3, -700), _mpf_of(2 ** 160 - 1, 440)],
                   [_EXTENDED.mpc(1, -1), _EXTENDED.mpc(-7, 2 ** 100)]])
@example(operands=[[_mpf_of(1, 0), _mpf_of(1, -200)], [1e300 + 1j, -1e300j]])
@example(operands=[[2 ** 600, -(2 ** 600), 1], [_mpf_of(1, 0)] * 3])
# the same survivor 560 bits below the cancelling terms, beyond the
# 2 * prec bits of fdot, which returned 0 here
@example(operands=[[_mpf_of(1, -400), _mpf_of(1, 160), _mpf_of(-1, 160)],
                   [_mpf_of(1, 0)] * 3])
def test_dot_rounds_the_exact_sum_once(operands):
    u, v = (np.array(x, dtype=object) for x in operands)
    got = dot(u, v)
    assert _fields(got) == tuple(map(_rounded_once, _exact_sum(*operands)))
    complex_terms = any(isinstance(x, (complex, _EXTENDED.mpc))
                        for x in operands[0] + operands[1])
    assert isinstance(got, _EXTENDED.mpc) == complex_terms


_FLOATS = st.floats(-2.0 ** 600, 2.0 ** 600)


@st.composite
def _plain_operands(draw):
    """Two equally long float64 or Fraction arrays."""
    size = draw(st.integers(0, 64))
    if draw(st.booleans()):
        values = st.lists(_FLOATS, min_size=size, max_size=size)
        return [np.array(draw(values), dtype=float) for _ in range(2)]
    values = st.lists(st.fractions(max_denominator=2 ** 64),
                      min_size=size, max_size=size)
    return [np.array(draw(values), dtype=object) for _ in range(2)]


@settings(max_examples=100)
@given(operands=_plain_operands())
@example(operands=[np.array([2.0 ** 600, 1.0, -(2.0 ** 600)])] * 2)
@example(operands=[np.array([Fraction(1, 3), Fraction(-5, 7)], dtype=object),
                   np.array([Fraction(9, 2), Fraction(1, 3)], dtype=object)])
def test_dot_of_floats_and_fractions_is_the_product(operands):
    u, v = operands
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = dot(u, v), u @ v
    assert type(got) is type(want)
    if u.dtype == float:    # bits, NaN included
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


_INF, _NAN = _EXTENDED.inf, _EXTENDED.nan


@pytest.mark.parametrize("u, v", [
    ([_INF, 1], [2, 3]),
    ([_INF, -_INF], [1, 1]),
    ([_INF, 1], [0, 1]),
    ([_NAN, 1], [1, 1]),
    ([-_INF, 1], [_EXTENDED.mpc(1, 1), _EXTENDED.mpc(2)]),
    ([_INF], [_EXTENDED.mpc(1, 0)]),
    ([_EXTENDED.mpc(_INF, 1)], [_EXTENDED.mpc(1, -1)]),
    ([_EXTENDED.mpc(1, _NAN), 2], [_EXTENDED.mpc(1, 1), _EXTENDED.mpc(3)]),
], ids=["inf", "inf-inf", "inf*0", "nan", "-inf*mpc", "inf*real-mpc",
        "mpc-inf", "mpc-nan"])
def test_dot_propagates_inf_and_nan_as_the_product(u, v):
    u, v = (lift(x, EXTENDED) for x in (u, v))
    got, old = dot(u, v), u @ v

    def specials(x):
        return [(_EXTENDED.isnan(p), _EXTENDED.isinf(p) and p > 0,
                 _EXTENDED.isinf(p) and p < 0)
                for p in (_EXTENDED.re(x), _EXTENDED.im(x))]

    assert specials(got) == specials(old)
    assert any(any(flags) for flags in specials(got))


@settings(max_examples=100)
@given(values=st.integers(0, 64).flatmap(lambda size: st.lists(
    st.one_of(_OPERANDS["mpf"], _OPERANDS["mpc"]),
    min_size=size, max_size=size)))
@example(values=[_mpf_of(1, -600), _EXTENDED.mpc(_mpf_of(3, 400), 1)])
@example(values=[])
def test_norm_is_the_root_of_the_square_sum_rounded_once(values):
    squares = sum((re * re + im * im for re, im in map(_rational_parts,
                                                       values)), Fraction(0))
    want = math.sqrt(float(_EXTENDED.make_mpf(_rounded_once(squares))))
    assert _norm(np.array(values, dtype=object)) == want


# -- the orthonormal tables on one parity ---------------------------------

def _stride_one_rows(alpha, root_beta, shift):
    """``_orthonormal_rows`` as it was before it built the rows of a
    symmetric measure on one parity, kept verbatim as the oracle."""
    n = root_beta.size
    coef = np.full((n, n), root_beta[0] * 0, dtype=root_beta.dtype)
    coef[0, 0] = 1 / root_beta[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1):
            nxt = coef[k + 1, :k + 2]
            nxt[1:] = coef[k, :k + 1]
            _plus_basis_shift(nxt[:k], coef[k, 1:k + 1], shift)
            nxt[:k + 1] -= coef[k, :k + 1] * alpha[k]
            if k:
                nxt[:k] -= coef[k - 1, :k] * root_beta[k]
            nxt /= root_beta[k + 1]
    return coef


def _mpf_orthonormal_rows(alpha, root_beta, shift):
    """``_orthonormal_rows`` as it was when it also built the rows of the
    object modes in mpf, kept verbatim as the oracle of the integer
    rows."""
    n = root_beta.size
    step = 1 if any(alpha) else 2
    # zeros of the number type: the rows' upper triangle stays zero
    coef = np.full((n, n), root_beta[0] * 0, dtype=root_beta.dtype)
    coef[0, 0] = 1 / root_beta[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1):
            lo = (k + 1) % step
            nxt = coef[k + 1, lo:k + 2:step]
            below = len(range(lo, k, step))     # entries l < k
            nxt[1 - lo:] = coef[k, k % step:k + 1:step]
            _plus_basis_shift(nxt[:below], coef[k, lo + 1:k + 1:step], shift)
            if step == 1:
                nxt[:k + 1] -= coef[k, :k + 1] * alpha[k]
            if k:
                nxt[:below] -= coef[k - 1, lo:k:step] * root_beta[k]
            nxt /= root_beta[k + 1]
    return coef


def _same_where_finite(got, want):
    """The entries of the float ``got`` equal those of ``want``, bit for
    bit, wherever ``want`` is finite."""
    finite = np.isfinite(want)
    return got[finite].tobytes() == want[finite].tobytes()


def _table_bytes(table):
    return [part.tobytes() for part in table]


def _family_rows(coeffs, n_max, shift, precision):
    """(alpha, sqrt(beta), shift) of the table ``classify`` builds for
    ``coeffs`` at ``n_max`` in DOUBLE or EXTENDED: a finite family stops
    at its size."""
    size = min(n_max, coeffs.size) if coeffs.is_finite else n_max
    return (lift(coeffs.b_head(size - 1), precision),
            lift(coeffs.a_head(size), precision), shift)


_ROW_SIZES = st.integers(1, 40)
_ROW_A = st.floats(0.25, 4.0)
_ROW_B = st.floats(-2.0, 2.0)


@st.composite
def _row_families(draw):
    """(coeffs, n_max, shift, precision): b = 0 (a symmetric measure) or
    b drawn freely, float64 or mpf rows, either basis."""
    size = draw(_ROW_SIZES)
    a = [1.0] + draw(st.lists(_ROW_A, min_size=size, max_size=size))
    b = (draw(st.lists(_ROW_B, min_size=size, max_size=size))
         if draw(st.booleans()) else [0.0] * size)
    return (JacobiCoefficients.from_arrays(a, b), size,
            draw(st.sampled_from([0, 1])),
            draw(st.sampled_from([PrecisionMode.DOUBLE, EXTENDED])))


_SHORT_SYMMETRIC = JacobiCoefficients.from_arrays([1, 2, 3, 1, 2, 5], [0] * 6)
_GEO_HALF = JacobiCoefficients.geometric(0.5)
_SKEWED = JacobiCoefficients.from_arrays(
    [1.0, 0.7, 1.3, 2.0, 0.5], [0.25, -0.5, 0.0, 1.5, -0.75])


@settings(max_examples=60)
@given(family=_row_families())
@example(family=(JacobiCoefficients.geometric(2), 24, 0, EXTENDED))
@example(family=(JacobiCoefficients.geometric(1.5), 24, 1, EXTENDED))
@example(family=(_carleman(0.75), 24, 0, PrecisionMode.DOUBLE))
@example(family=(_carleman(0.5), 24, 1, PrecisionMode.DOUBLE))
@example(family=(_SKEWED, 5, 0, EXTENDED))
@example(family=(_SKEWED, 5, 1, PrecisionMode.DOUBLE))
# a finite symmetric family shorter than n_max
@example(family=(_SHORT_SYMMETRIC, 24, 0, EXTENDED))
@example(family=(_SHORT_SYMMETRIC, 24, 1, PrecisionMode.DOUBLE))
# rows that underflow to subnormals and zeros
@example(family=(JacobiCoefficients.geometric(2), 64, 0, PrecisionMode.DOUBLE))
@example(family=(JacobiCoefficients.geometric(2), 64, 1, PrecisionMode.DOUBLE))
# rows that overflow float64 from k = 44 on
@example(family=(_GEO_HALF, 64, 0, PrecisionMode.DOUBLE))
@example(family=(_GEO_HALF, 64, 1, PrecisionMode.DOUBLE))
def test_parity_rows_equal_the_stride_one_rows(family):
    coeffs, n_max, shift, precision = family
    rows = _family_rows(coeffs, n_max, shift, precision)
    want = _stride_one_rows(*rows)
    if precision is EXTENDED:    # the integer rows, read into the table
        got = _orthonormal_table(*rows)
        assert _table_bytes(got) == _table_bytes(_frexp_table(want))
    else:
        got = _orthonormal_rows(*rows)
        assert _same_where_finite(got, want)
        got = _frexp_table(got)
    assert _min_eigs(got).tobytes() == _min_eigs(_frexp_table(want)).tobytes()


def test_overflowed_double_rows_keep_their_zeros():
    # the stride-one rows turn the parity zeros after an overflow into
    # NaN (inf * 0); the parity rows leave them zero, and no block from
    # the overflow on is read either way
    rows = _family_rows(_GEO_HALF, 64, 0, PrecisionMode.DOUBLE)
    got, want = _orthonormal_rows(*rows), _stride_one_rows(*rows)
    assert np.isnan(want).any() and not np.isnan(got[::2, 1::2]).any()
    assert (got[::2, 1::2] == 0).all() and (got[1::2, ::2] == 0).all()


@pytest.mark.parametrize("shift", [0, 1])
def test_exact_symmetric_data_take_the_parity_rows(monkeypatch, shift):
    # Wheeler's alpha_k of exact symmetric data are exact zeros, so the
    # data route builds its table on one parity too, with the same bits
    from jacobi_bc import _multiprec
    r = response_vector(GEO3, 47, RATIONAL).as_array()
    s = response_to_moments(r, RATIONAL).as_array()
    alphas = []
    parity = _multiprec._orthonormal_table
    monkeypatch.setattr(_multiprec, "_orthonormal_table",
                        lambda alpha, *rest: alphas.append(alpha)
                        or parity(alpha, *rest))

    def run():
        if shift:
            return connecting_eig_sequences(r, 24, RATIONAL)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            return (hankel_min_eigs(s, 24, RATIONAL),)

    got = run()
    assert len(alphas) == 1 and alphas[0].size == 23
    assert not any(alphas[0])
    monkeypatch.setattr(_multiprec, "_orthonormal_table",
                        lambda *rows: _frexp_table(_stride_one_rows(*rows)))
    want = run()
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


# -- the integer rows of the object modes ---------------------------------

_RANDOM_B = JacobiCoefficients.from_arrays(
    [1.0] + np.random.default_rng(64).uniform(0.25, 4.0, 64).tolist(),
    np.random.default_rng(65).uniform(-2.0, 2.0, 64).tolist())
_CARLEMAN_09 = JacobiCoefficients.from_rules(lambda n: (n + 1) ** 0.9,
                                             lambda n: 0)


def _worst_error(values, exact):
    """max |v - e| / |e| over the entries, both given as exact Fractions;
    an exact zero is matched only by a zero."""
    worst = Fraction(0)
    for v, e in zip(values, exact, strict=True):
        if not e:
            if v:
                return math.inf
        else:
            worst = max(worst, abs(v - e) / abs(e))
    return worst


@settings(max_examples=40)
@given(family=_row_families())
# the pinned diagnose case
@example(family=(GEO3, 30, 0, EXTENDED))
@example(family=(GEO3, 30, 1, EXTENDED))
@example(family=(_RANDOM_B, 64, 0, EXTENDED))
@example(family=(_RANDOM_B, 64, 1, EXTENDED))
@example(family=(_CARLEMAN_09, 128, 0, EXTENDED))
@example(family=(_CARLEMAN_09, 128, 1, EXTENDED))
def test_integer_tables_equal_those_of_the_mpf_rows(family):
    """The integer rows, read into the table with no mpf, give the frexp
    table of the mpf rows byte for byte, hence the same lambda_min of
    every block; against the exact table of the same lifted values they
    err no more than the mpf rows."""
    coeffs, n_max, shift, _ = family
    rows = _family_rows(coeffs, n_max, shift, EXTENDED)
    mpf_rows = _mpf_orthonormal_rows(*rows)
    got, want = _orthonormal_table(*rows), _frexp_table(mpf_rows)
    assert _table_bytes(got) == _table_bytes(want)
    assert _min_eigs(got).tobytes() == _min_eigs(want).tobytes()
    exact = _stride_one_rows(*[np.array([_exact_fraction(x) for x in part],
                                        dtype=object) for part in rows[:2]],
                             shift)
    lower = [(k, l) for k in range(len(exact)) for l in range(k + 1)]
    ints = [Fraction(x) * Fraction(2) ** row.exp
            for row in _orthonormal_ints(*rows) for x in row.re]
    assert (_worst_error(ints, [exact[at] for at in lower])
            <= _worst_error([_exact_fraction(mpf_rows[at]) for at in lower],
                            [exact[at] for at in lower]))


@pytest.mark.parametrize("value", [
    # a tie at float64's last bit, to even; a bit far below breaks it
    (1 << 1100) + (1 << 1047), (1 << 1100) + (1 << 1047) + 1,
    # rounds up to a mantissa of 1.0
    (1 << 1101) - 1, -((1 << 1100) + (3 << 1046)), 3 ** 700, 3 ** 20])
def test_int_table_rounds_wide_ints_to_nearest(value):
    bits = abs(value).bit_length()
    (mant, exp), = _emitted(_Ints([value], None, 1, -7), float)
    assert mant == float(Fraction(value, 1 << bits))
    assert exp == bits - 7


def _float64_fields(x: int, den: int, exp: int) -> tuple:
    """(m, e) with m 2^e the exact x / den * 2^exp rounded once to 53
    bits, ties to even, m in [1/2, 1], by Fraction arithmetic alone."""
    value = Fraction(x, den) * Fraction(2) ** exp
    if not value:
        return Fraction(0), 0
    e = x.bit_length() - den.bit_length() + exp
    while abs(value) >= Fraction(2) ** e:
        e += 1
    while abs(value) < Fraction(2) ** (e - 1):
        e -= 1
    # round() of a Fraction takes a tie to the even integer
    return Fraction(round(value / Fraction(2) ** e * 2 ** 53), 2 ** 53), e


@st.composite
def _exit_operands(draw):
    """(ints, den, exp) of an _Ints: den 1 or odd, some ints on or next to
    a float64 tie of the value they give over den."""
    den = draw(st.just(1) | st.integers(0, 1 << 80).map(lambda k: 2 * k + 1))
    near_tie = st.builds(
        lambda m, k, d, sign: sign * den * ((((m << 1) | 1) << k) + d),
        st.integers(1 << 52, (1 << 53) - 1), st.integers(0, 1100),
        st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 1]))
    ints = draw(st.lists(near_tie | st.integers(-(1 << 3000), 1 << 3000),
                         min_size=1, max_size=4))
    return ints, den, draw(st.integers(-5000, 5000))


@settings(max_examples=300)
@given(_exit_operands())
def test_float_exit_rounds_each_value_once(operands):
    ints, den, exp = operands
    got = _emitted(_Ints(ints, None, den, exp), float)
    for x, (mant, e) in zip(ints, got):
        assert type(mant) is float
        assert (Fraction(mant), e) == _float64_fields(x, den, exp)


# -- the matrix-vector dot product of the factorization -------------------

@st.composite
def _matrix_operands(draw):
    """A 2-D u and a 1-D v of one branch's operand kinds, either side."""
    kinds = draw(st.sampled_from(_BRANCHES))
    rows, size = draw(st.integers(0, 6)), draw(st.integers(0, 12))
    if draw(st.booleans()):
        kinds = kinds[::-1]
    u = [draw(st.lists(_OPERANDS[kinds[0]], min_size=size, max_size=size))
         for _ in range(rows)]
    v = draw(st.lists(_OPERANDS[kinds[1]], min_size=size, max_size=size))
    return u, v


@settings(max_examples=60)
@given(operands=_matrix_operands())
@example(operands=([[_mpf_of(1, -160), _mpf_of(1, 160), _mpf_of(-1, 160)]] * 2,
                   [_mpf_of(1, 0)] * 3))
def test_dot_of_a_matrix_rounds_each_row_once(operands):
    rows, v = operands
    u = np.array(rows, dtype=object).reshape(len(rows), len(v))
    got = dot(u, np.array(v, dtype=object))
    assert got.dtype == object and got.shape == (len(rows),)
    for row, value in zip(rows, got):
        assert _fields(value) == tuple(map(_rounded_once, _exact_sum(row, v)))


def test_dot_of_a_float_or_fraction_matrix_is_the_product(rng):
    u, v = rng.standard_normal((5, 7)), rng.standard_normal(7)
    assert dot(u, v).tobytes() == (u @ v).tobytes()
    exact = lift(rng.integers(-9, 9, (5, 7)) / 8, RATIONAL)
    right = lift(rng.integers(-9, 9, 7) / 3, RATIONAL)
    assert list(dot(exact, right)) == list(exact @ right)


def test_fraction_factor_stays_exact():
    # a Hilbert block: L diag(d) L^T reproduces it in exact Fractions
    hilbert = np.array([[Fraction(1, i + j + 1) for j in range(8)]
                        for i in range(8)], dtype=object)
    low, piv = pd_factor(hilbert)
    assert all(type(x) is Fraction for x in piv)
    assert ((low * piv) @ low.T == hilbert).all()


def test_extended_factor_sums_each_entry_once():
    # every pivot and every entry of L is its defining sum formed by
    # fdot from the entries before it, so the factor reproduces the
    # block to a few units of the 50th digit
    r = response_vector(GEO3, 39, EXTENDED).as_array()
    block = lift(connecting_from_response(r, 20, EXTENDED).matrix, EXTENDED)
    low, piv = pd_factor(block)
    for j in range(20):
        scaled = low[j, :j] * piv[:j]
        assert piv[j] == block[j, j] - _EXTENDED.fdot(low[j, :j].tolist(),
                                                      scaled.tolist())
    rebuilt = (low * piv) @ low.T
    scale = max(abs(x) for x in block.flat)
    assert max(abs(x) for x in (rebuilt - block).flat) <= 1e-45 * scale


@pytest.mark.parametrize("at", [(1, 1), (1, 0)])
def test_extended_factor_refuses_inf(at):
    # wherever the mpf inf sits, it is refused, not read as a pivot
    block = lift([[1, 0.5], [0.5, 2]], EXTENDED)
    block[at] = block[at[::-1]] = mpmath.mpf("inf")
    with pytest.raises(ConditioningError, match="inf or NaN"):
        pd_factor(block)


# -- the solves on the integer form against the fdot sweeps ---------------

def _fdot(u, v):
    return _EXTENDED.fdot(u.tolist(), v.tolist())


def _fdot_sweeps(low, piv, rhs):
    """The object sweeps of the solves on fdot, the integer form's
    oracle."""
    diag = low.diagonal()
    x = rhs.copy()
    for i in range(x.size):
        x[i] = (x[i] - _fdot(low[i, :i], x[:i])) / diag[i]
    if piv is not None:
        x = x / piv
    for i in reversed(range(x.size)):
        x[i] = (x[i] - _fdot(low[i + 1:, i], x[i + 1:])) / diag[i]
    return x


def _fdot_gram_apply(w):
    """x -> W^T (W x) on fdot, summing only the nonzero terms of W."""
    def apply(x):
        wx, out = np.empty_like(x), np.empty_like(x)
        for i in range(x.size):
            wx[i] = _fdot(w[i, i:], x[i:])
        for i in range(x.size):
            out[i] = _fdot(w[:i + 1, i], wx[:i + 1])
        return out
    return apply


def _fdot_norm(vec):
    values = vec.tolist()
    return math.sqrt(float(_EXTENDED.fdot(values, values, True).real))


def _fdot_solve(low, piv, apply, rhs):
    """The refinement loop of the solves on the fdot sweeps: x and its
    relative residual, which is above the tolerance when it stalls."""
    b = lift(rhs, EXTENDED)
    scale = max(_fdot_norm(b), 1e-300)
    x = _fdot_sweeps(low, piv, b)
    residual = _fdot_norm(apply(x) - b) / scale
    for _ in range(_multiprec._REFINE_STEPS):
        if residual <= _multiprec._RESIDUAL_TOL:
            break
        x = x + _fdot_sweeps(low, piv, b - apply(x))
        residual = _fdot_norm(apply(x) - b) / scale
    return x, residual


def _typed_fields(values):
    return [(type(x), _fields(x)) for x in values]


def _assert_solves_alike(solve, want_x, want_residual):
    """``solve()`` returns the oracle's x and residual bit for bit, or,
    where the oracle stalls, raises naming the same residual."""
    if want_residual <= _multiprec._RESIDUAL_TOL:
        x, residual = solve()
        assert _typed_fields(x) == _typed_fields(want_x)
        assert residual == want_residual
    else:
        with pytest.raises(ConditioningError,
                           match=re.escape(f"{want_residual:.3e}")):
            solve()


_COMPLEX_RHS = st.builds(_EXTENDED.mpc, _MPF, _MPF)


@st.composite
def _gram_systems(draw):
    """Random coefficients, a horizon and a complex right side."""
    size = draw(st.integers(1, 40))
    coeffs = random_coefficients(
        np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), size + 1)
    return coeffs, size, draw(st.lists(_COMPLEX_RHS, min_size=size,
                                       max_size=size))


@settings(max_examples=25)
@given(system=_gram_systems())
# W_40 of geometric(3) spans 2^1236; its solve stalls at 50 digits
@example(system=(GEO3, 40, [_EXTENDED.mpc(1, -k) for k in range(40)]))
@example(system=(GEO3, 12, [_EXTENDED.mpc(_mpf_of(3, -500), 2)] * 12))
def test_gram_solve_equals_the_fdot_sweeps(system):
    # on W's columns from the sweep; the residual product takes W x from
    # the back sweep, or forms it for a refined x
    coeffs, size, rhs = system
    w = control_operator(coeffs, size, EXTENDED).matrix
    b = lift(rhs, EXTENDED)
    low, apply = _multiprec._gram_operator(_gram_upper(coeffs, size,
                                                       EXTENDED))
    x, wx = _multiprec._sweeps(low, None, b)
    assert _typed_fields(x) == _typed_fields(_fdot_sweeps(w.T, None, b))
    product = apply(x, wx)
    assert _typed_fields(product) == _typed_fields(_fdot_gram_apply(w)(x))
    assert _typed_fields(apply(x, None)) == _typed_fields(product)
    assert _norm(product - b) == _fdot_norm(product - b)
    _assert_solves_alike(
        lambda: gram_solve(_gram_upper(coeffs, size, EXTENDED), rhs),
        *_fdot_solve(w.T, None, _fdot_gram_apply(w), rhs))


def _eighths(low, high):
    return st.integers(low, high).map(lambda k: Fraction(k, 8))


@st.composite
def _krein_systems(draw):
    """A family with a in [0.5, 2] and b in [-1, 1], as floats or on the
    1/8 grid with exact zeros among the b, its size T <= 24, an object
    mode and a complex or a real z."""
    size = draw(st.integers(1, 24))
    if draw(st.booleans()):
        a, b = _eighths(4, 16), _eighths(-8, 8) | st.just(Fraction(0))
    else:
        a, b = st.floats(0.5, 2.0), st.floats(-1.0, 1.0)
    a, b = (draw(st.lists(x, min_size=size, max_size=size)) for x in (a, b))
    z = complex(draw(st.floats(-2.0, 2.0)),
                draw(st.just(0.0) | st.floats(0.5, 2.0)))
    return (JacobiCoefficients.from_arrays([1] + a[1:], b), size,
            draw(st.sampled_from([EXTENDED, RATIONAL])), z)


@settings(max_examples=30)
@given(system=_krein_systems())
def test_krein_route_solves_the_sweeps_columns_as_the_matrix(system):
    # W_T's columns from the sweep, each cell rounded once to EXTENDED,
    # give the fdot solve of the matrix of those mpf cells field for
    # field, and the kernel its KreinSolution gives; the back sweep's W x
    # is the product of W's rows; a real right side stays real
    coeffs, size, mode, z = system
    upper = _gram_upper(coeffs, size, mode)
    w = lift(control_operator(coeffs, size, mode).matrix, EXTENDED)
    rhs = _krein_rhs(size, z, mode)
    for b in ([v.real for v in rhs], rhs):
        x, residual = gram_solve(upper, b)
        _assert_solves_alike(lambda: gram_solve(upper, b), *_fdot_solve(
            w.T, None, _fdot_gram_apply(w), b))
    lam = z.real / 2 - 0.25
    solution = KreinSolution(values=x, z=z, horizon=size, residual=residual)
    assert kernel_finite(coeffs, z, lam, size, method="krein",
                         precision=mode) == solution.kernel_value(lam)
    low, _ = _multiprec._gram_operator(upper)
    x, wx = _multiprec._sweeps(low, None, lift(rhs, EXTENDED))
    want = _read(_multiprec._times(_multiprec._int_lines(w)[0], x).tolist())
    assert (wx.re, wx.im, wx.exp) == (want.re, want.im, want.exp)


@given(values=st.lists(
    st.integers(-2 ** 400, 2 ** 400) | st.builds(    # ties at the precision
        lambda m, k, sign: sign * ((m << k) | 1 << k - 1),
        st.integers(2 ** (_EXTENDED.prec - 1), 2 ** _EXTENDED.prec - 1),
        st.integers(1, 80), st.sampled_from([1, -1])),
    min_size=1, max_size=6), exp=st.integers(-300, 300),
    den=st.just(1) | st.integers(2, 10 ** 6))
def test_rounded_cells_are_the_mpf_cells(values, exp, den):
    # a column of W_T for the Krein solve holds each cell exactly as
    # ``_round`` rounds it for the mpf cell, on one scale of den 1
    column = _rounded(_Ints(values, None, den, exp))
    assert column.den == 1
    assert _emitted(column, _EXTENDED.mpf) == [
        _EXTENDED.make_mpf(_round(x, exp, den)) for x in values]


@pytest.mark.parametrize("size", [1, 7, 25, 40])
def test_pd_solve_equals_the_fdot_sweeps(rng, size):
    # the data route of the Krein kernel: pd_factor's L and the block
    # itself in the integer form
    block = lift(gram_from_control(random_coefficients(rng, size + 1), size,
                                   EXTENDED).matrix, EXTENDED)
    rhs = [_EXTENDED.mpc(*rng.standard_normal(2)) for _ in range(size)]
    low, piv = pd_factor(block)
    _assert_solves_alike(
        lambda: mp_pd_solve(block, rhs),
        *_fdot_solve(low, piv, lambda x: np.array(
            [_fdot(row, x) for row in block], dtype=object), rhs))


# -- the DOUBLE factor and solves against scipy's LAPACK ------------------

def _spd_block(rng, size):
    """A random symmetric positive-definite float block, condition <= 5."""
    g = rng.standard_normal((size, size))
    return g @ g.T + size * np.eye(size)


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("size", [5, 40, 256])
def test_double_factor_is_scipys_cholesky(rng, size):
    block = _spd_block(rng, size)
    chol = scipy.linalg.cholesky(block, lower=True)
    diag = np.diagonal(chol)
    low, piv = pd_factor(block)
    assert low.tobytes() == (chol / diag).tobytes()
    assert piv.tobytes() == (diag * diag).tobytes()


@pytest.mark.parametrize("size", [5, 40, 256])
def test_double_sweeps_match_scipys_triangular_solves(rng, size):
    block = _spd_block(rng, size)
    rhs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    low, piv = pd_factor(block)
    half = scipy.linalg.solve_triangular(low, rhs, lower=True)
    want = scipy.linalg.solve_triangular(low, half / piv, lower=True,
                                         trans="T")
    _assert_close(_multiprec._sweeps(low, piv, rhs)[0], want)
    _assert_close(mp_pd_solve(block, rhs)[0], want)
    # W is the upper Cholesky factor, so W^T W is the block
    w = scipy.linalg.cholesky(block, lower=False)
    half = scipy.linalg.solve_triangular(w, rhs, trans="T")
    want = scipy.linalg.solve_triangular(w, half)
    _assert_close(gram_solve(w, rhs)[0], want)


# The first use of the EXTENDED context, in a new interpreter: ``_SETUP``
# runs there and here, where the context is loaded, and each statement of
# ``_FIRST_CALLS`` binds ``result``, whose ``fields`` must agree.
_SETUP = """
import sys

import numpy as np

from jacobi_bc import (PrecisionMode, build_hankel, krein_solve_hankel,
                       recover_from_moments)
from jacobi_bc import _multiprec
from jacobi_bc._multiprec import dot, lift, mode_of

EXTENDED = PrecisionMode.EXTENDED


def fields(x):
    # the fields of every number, mpf and mpc with whether they are of
    # the one EXTENDED context of the process
    if isinstance(x, (np.ndarray, list, tuple)):
        return [fields(v) for v in list(x)]
    if hasattr(x, "_mpc_"):
        return "mpc", x._mpc_, type(x) is _multiprec._MPC
    if hasattr(x, "_mpf_"):
        return "mpf", x._mpf_, type(x) is _multiprec._MPF
    if isinstance(x, float):
        return x.hex()
    return repr(x)
"""

_FIRST_CALLS = {
    "lift": "result = lift([0.1, 2], EXTENDED)",
    # the first mpmath of this solve is solve_scalar, before any lift
    "krein_solve_hankel": "result = krein_solve_hankel("
                          "build_hankel([1, 0, 1], 2), 0.5j, EXTENDED)",
    "recover_from_moments": "r = recover_from_moments([1, 0, 1, 0, 2], 3, "
                            "EXTENDED); result = r.a, r.b, r.residual",
    # the EXTENDED entry reads the context before its emitter uses
    # mpmath's normalize
    "the EXTENDED entry": "from fractions import Fraction; result = "
                          "_multiprec._enter(Fraction(-1, 3), EXTENDED)",
    # ... and before it uses mpmath's from_float
    "the EXTENDED entry of a float": "result = _multiprec._enter(-0.1, "
                                     "EXTENDED)",
    # a RATIONAL gamma table rounds its exact cells to float64 with no
    # mpmath
    "the RATIONAL gamma table": "from fractions import Fraction; "
                                "q = PrecisionMode.RATIONAL; "
                                "w = np.zeros((3, 4)), np.zeros((3, 4), int); "
                                "_multiprec.forward_sweep("
                                "lift([1, 0, 0, 0], q), "
                                "lift([1, Fraction(1, 3), 2], q), "
                                "lift([Fraction(1, 5), 0, -1], q), w); "
                                "result = np.ldexp(*w)",
    # a caller's mpf is of no EXTENDED type, loaded or not
    "mode_of and dot": "import mpmath; "
                       "v = np.array([mpmath.mpf(1), mpmath.mpf(2)], "
                       "dtype=object); result = mode_of(v).name, dot(v, v)",
}

_FIRST_USE = _SETUP + """
assert isinstance(_multiprec._EXTENDED, _multiprec._Unloaded)
assert "mpmath" not in sys.modules
exec(sys.argv[1])
print(repr(fields(result)))
"""


def _fresh_fields(source, *args):
    """The fields ``source`` prints in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(_multiprec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", source, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def _loaded_fields(statement):
    space = {}
    exec(_SETUP, space)
    exec(statement, space)
    return space["fields"](space["result"])


@pytest.mark.parametrize("name", list(_FIRST_CALLS))
def test_first_use_gives_the_bits_of_a_loaded_process(name):
    statement = _FIRST_CALLS[name]
    assert _fresh_fields(_FIRST_USE, statement) == _loaded_fields(statement)


def test_rational_gamma_leaves_mpmath_unloaded():
    source = _SETUP + _FIRST_CALLS["the RATIONAL gamma table"] + """
print(repr("mpmath" in sys.modules))
"""
    assert _fresh_fields(source) is False


_RACE = _SETUP + """
import threading

sys.setswitchinterval(1e-6)
start, results = threading.Barrier(2), [None, None]


def first_call(k):
    start.wait()
    results[k] = lift([0.1, 2], EXTENDED)


threads = [threading.Thread(target=first_call, args=(k,)) for k in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(repr(fields(results)))
"""


def test_concurrent_first_use_builds_one_context():
    # a second context would make its own mpf type, not _multiprec._MPF
    one = _loaded_fields(_FIRST_CALLS["lift"])
    assert _fresh_fields(_RACE) == [one, one]
