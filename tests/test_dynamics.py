import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jacobi_bc import (
    BoundaryControl,
    CoefficientUnderrunError,
    ComplexDataError,
    ConditioningError,
    ControlOperatorMatrix,
    InsufficientDataError,
    JacobiBCError,
    JacobiCoefficients,
    PrecisionMode,
    ResponseVector,
    WaveField,
    apply_response,
    control_operator,
    hermite_biehler,
    kernel_finite,
    kernel_infinite,
    response_vector,
    solution_via_spectrum,
    solve_finite,
    solve_semi_infinite,
)
from jacobi_bc import (circle_bound_connecting, circle_bound_hankel,
                       deficiency_partial_sums, extension_parameter,
                       validate_coefficients)
from jacobi_bc.spectral import eval_p_all, eval_q_all
from jacobi_bc import _multiprec, dynamics
from jacobi_bc._multiprec import lift
from jacobi_bc.cli import main

from conftest import random_coefficients

FREE = JacobiCoefficients.free()
B1 = JacobiCoefficients.from_rules(lambda n: 1, lambda n: 1 if n == 1 else 0)


coeff_lists = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.5, 2.0), min_size=n - 1, max_size=n - 1),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
    ))


class TestSolvers:
    def test_free_impulse_hand_iterated(self):
        field = solve_semi_infinite(FREE, BoundaryControl.impulse(3))
        assert field.value(1, 1) == 1.0
        assert field.value(2, 2) == 1.0
        assert field.value(1, 2) == 0.0
        assert field.value(1, 3) == 0.0

    def test_zero_control_zero_field(self):
        field = solve_semi_infinite(FREE, [0.0, 0.0, 0.0])
        assert not np.any(field.values)
        field = solve_finite(B1, 2, [0.0, 0.0, 0.0])
        assert not np.any(field.values)

    def test_b1_impulse_hand_iterated(self):
        field = solve_semi_infinite(B1, BoundaryControl.impulse(3))
        assert [field.value(1, t) for t in (1, 2, 3)] == [1.0, 1.0, 1.0]

    def test_finite_size_one_alternates(self):
        field = solve_finite(JacobiCoefficients.from_arrays([1.0], [0.0]), 1,
                             BoundaryControl.impulse(4))
        assert [field.value(1, t) for t in (1, 2, 3, 4)] == [1.0, 0.0, -1.0, 0.0]

    def test_initial_data_zero(self):
        field = solve_semi_infinite(B1, BoundaryControl.impulse(4))
        assert not np.any(field.values[1:, 0])  # t = -1
        assert not np.any(field.values[1:, 1])  # t = 0

    def test_state_checks_the_time_index(self):
        # state(t) takes the time indices value(n, t) takes, no others
        field = solve_semi_infinite(B1, BoundaryControl.impulse(3))
        assert list(field.state(-1)) == [0.0] * 3
        assert list(field.state(3)) == [field.value(n, 3) for n in (1, 2, 3)]
        for t in (-2, 4):
            with pytest.raises(IndexError,
                               match=f"^time index {t} outside -1..3$"):
                field.state(t)

    def test_underrun(self):
        short = JacobiCoefficients.from_arrays([1.0], [0.0])
        with pytest.raises(CoefficientUnderrunError):
            solve_semi_infinite(short, BoundaryControl.impulse(3))

    @settings(max_examples=20)
    @given(coeff_lists)
    def test_remark_agreement_finite_vs_semi(self, data):
        a_tail, b = data
        co = JacobiCoefficients.from_arrays([1.0] + a_tail, b)
        size = co.size
        ctrl = BoundaryControl.impulse(size)
        semi = solve_semi_infinite(co, ctrl, size)
        fin = solve_finite(co, size, ctrl, size)
        for n in range(1, size + 1):
            for t in range(n, size + 1):
                assert semi.value(n, t) == fin.value(n, t)

    @settings(max_examples=20)
    @given(coeff_lists)
    def test_finite_speed(self, data):
        a_tail, b = data
        co = JacobiCoefficients.from_arrays([1.0] + a_tail, b)
        size = co.size
        field = solve_semi_infinite(co, BoundaryControl.impulse(size), size)
        for n in range(1, size + 1):
            for t in range(-1, n):
                assert field.value(n, t) == 0.0

    def test_linearity_complex_controls(self, rng):
        co = random_coefficients(rng, 8)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        alpha, beta = 0.7 - 0.2j, -1.3 + 0.4j
        combo = solve_semi_infinite(co, alpha * f + beta * g, 8)
        parts = (alpha * solve_semi_infinite(co, f, 8).values
                 + beta * solve_semi_infinite(co, g, 8).values)
        assert np.max(np.abs(combo.values - parts)) < 1e-12 * max(
            1.0, np.max(np.abs(parts)))

    def test_convolution_structure(self, rng):
        co = random_coefficients(rng, 10)
        f = rng.standard_normal(10)
        r = response_vector(co, 10)
        field = solve_semi_infinite(co, f, 10)
        outputs = np.array([field.value(1, t) for t in range(1, 11)])
        assert np.max(np.abs(outputs - apply_response(r, f))) < 1e-9


class TestResponse:
    def test_free_response(self):
        assert np.array_equal(response_vector(FREE, 5).as_array(),
                              [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_b1_response(self):
        assert np.array_equal(response_vector(B1, 3).as_array(), [1.0, 1.0, 1.0])

    def test_first_entry_is_one(self, rng):
        co = random_coefficients(rng, 6)
        assert response_vector(co, 6)[0] == 1.0

    def test_finite_system_reflects_wall(self):
        # depth-1 system: r = (1, 0, -1, 0, ...) once the wall echoes
        co = JacobiCoefficients.from_arrays([1.0], [0.0])
        assert np.array_equal(response_vector(co, 4).as_array(), [1, 0, -1, 0])

    def test_rational_mode_is_exact(self):
        # frozen from the independent oracle: s_m = <A^m e_1, e_1> in
        # integer arithmetic, pushed through the Chebyshev transform
        r = response_vector(JacobiCoefficients.geometric(2), 9,
                            PrecisionMode.RATIONAL)
        assert [int(v) for v in r] == [1, 0, 3, 0, 69, 0, 5319, 0, 1467849]


class TestControlOperator:
    def test_free_identity(self):
        assert np.array_equal(control_operator(FREE, 3).matrix, np.eye(3))

    def test_b1_two_by_two(self):
        assert np.array_equal(control_operator(B1, 2).matrix, [[1, 1], [0, 1]])

    def test_trivial_horizon(self):
        assert np.array_equal(control_operator(FREE, 1).matrix, [[1.0]])

    def test_upper_triangular_diag_products(self, rng):
        co = random_coefficients(rng, 9)
        w = control_operator(co, 9).matrix
        assert np.array_equal(np.tril(w, -1), np.zeros((9, 9)))
        expected = np.cumprod(co.a_head(9))
        assert np.max(np.abs(np.diagonal(w) - expected)) < 1e-12

    def test_columns_match_unit_control_simulation(self, rng):
        # oracle: drive the system with each canonical basis control
        co = random_coefficients(rng, 7)
        horizon = 7
        op = control_operator(co, horizon)
        w_full = op.flipped()
        for j in range(horizon):
            unit = np.zeros(horizon)
            unit[j] = 1.0
            state = solve_semi_infinite(co, unit, horizon).state(horizon)
            assert np.max(np.abs(w_full[:, j] - state)) < 1e-10

    def test_superdiagonal_b_sum_identity(self, rng):
        # first superdiagonal entry (k, k+1), 1-based, carries
        # (prod_{j<k} a_j) * (b_1 + ... + b_k); simulation is the oracle
        co = random_coefficients(rng, 10)
        w = control_operator(co, 10).matrix
        prods = np.cumprod(co.a_head(10))
        bsums = np.cumsum(co.b_head(10))
        for k in range(1, 10):
            expected = prods[k - 1] * bsums[k - 1]
            assert abs(w[k - 1, k] - expected) < 1e-9 * max(1.0, abs(expected))

    def test_apply_matches_simulation(self, rng):
        co = random_coefficients(rng, 6)
        f = rng.standard_normal(6)
        op = control_operator(co, 6)
        state = solve_semi_infinite(co, f, 6).state(6)
        assert np.max(np.abs(op.apply(f) - state)) < 1e-12


class TestExports:
    def test_csv_and_json(self, tmp_path):
        # the CLI writes the field; the package itself knows no file format
        field = solve_semi_infinite(FREE, BoundaryControl.impulse(2))
        coeffs = tmp_path / "free.json"
        coeffs.write_text('{"generator": {"kind": "free"}}')
        argv = ["simulate", "--input", str(coeffs), "--T", "2", "--output"]
        assert main(argv + [str(tmp_path / "s.csv"), "--format", "csv"]) == 0
        text = (tmp_path / "s.csv").read_text()
        assert text.splitlines()[0].startswith("n\\t,-1,0,1,2")
        assert main(argv + [str(tmp_path / "s.json")]) == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["horizon"] == 2 and len(doc["rows"]) == 3
        assert doc["rows"] == field.values.tolist()


class _Exact:
    """An exact complex rational: the oracle loops below run on it with
    the operators of the mpf step, real and imaginary parts apart, and
    round nothing."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, x):
        """x (int, Fraction, mpf or mpc) exactly."""
        if hasattr(x, "_mpc_"):
            return cls(cls.of(x.real).re, cls.of(x.imag).re)
        if hasattr(x, "_mpf_"):
            sign, man, exp, _ = x._mpf_
            return cls(Fraction(-man if sign else man) * Fraction(2) ** exp)
        return x if isinstance(x, cls) else cls(x)

    def __add__(self, other):
        other = _Exact.of(other)
        return _Exact(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _Exact.of(other)
        return _Exact(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _Exact.of(other) - self

    def __mul__(self, other):
        other = _Exact.of(other)
        return _Exact(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)


# the precision of the oracle loops that round nothing
EXACT = "exact"


def _oracle_lift(values, precision):
    """``lift``, and for EXACT the EXTENDED lift read exactly."""
    if precision != EXACT:
        return lift(values, precision)
    lifted = lift(values, PrecisionMode.EXTENDED)
    return np.array([_Exact.of(x) for x in lifted.ravel().tolist()],
                    dtype=object).reshape(lifted.shape)


def _max_error(arr, exact) -> float:
    """The largest error of a cell of ``arr`` against ``exact``, relative
    to the cell's larger exact part; inf where an exact zero is missed."""
    worst = Fraction(0)
    for got, want in zip(arr.ravel().tolist(), exact.ravel().tolist()):
        got, want = _Exact.of(got), _Exact.of(want)
        miss = max(abs(got.re - want.re), abs(got.im - want.im))
        size = max(abs(want.re), abs(want.im))
        if miss and not size:
            return math.inf
        worst = max(worst, miss / size if miss else 0)
    return float(worst)


def _assert_as_accurate(got, step, exact):
    """EXTENDED outputs: the shape, dtype, layout and number type (mpf or
    mpc) of every cell of the mpf step's output, and a largest error
    against the exact loop no greater than the mpf step's.  Each is a
    callable; when the step raises, ``got`` must raise alike."""
    try:
        step = np.asarray(step())
    except Exception as exc:  # both sides must fail alike
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            got()
        return
    got, exact = np.asarray(got()), np.asarray(exact())

    def layout(arr):
        return (arr.shape, arr.dtype, arr.flags.c_contiguous,
                [type(v) for v in arr.ravel().tolist()])

    assert layout(got) == layout(step)
    assert _max_error(got, exact) <= _max_error(step, exact)


def _reference_control(control, horizon: int, precision: PrecisionMode):
    if isinstance(control, BoundaryControl):
        vals = control.padded(horizon)
    else:
        vals = list(control)
        if len(vals) > horizon:
            raise ValueError("control longer than the horizon")
        vals = vals + [0] * (horizon - len(vals))
    return _oracle_lift(vals, precision)


def _reference_field(coeffs, control, horizon, n_space, precision):
    """The full-field slab loop the rolling sweep replaced, kept verbatim
    as the oracle: every cell of the (n_space + 2) x (horizon + 2) field,
    one strided column per step."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_space < 1:
        raise ValueError("n_space must be >= 1")
    ctrl = _reference_control(control, horizon, precision)

    a = _oracle_lift(coeffs.a_head(n_space) + [0], precision)
    b = _oracle_lift([0] + coeffs.b_head(n_space), precision)
    u = np.zeros((n_space + 2, horizon + 2), dtype=np.result_type(a, ctrl))

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            u[0, t + 1] = ctrl[t]
            cur = u[:, t + 1]
            u[1:n_space + 1, t + 2] = (
                a[1:] * cur[2:n_space + 2]
                + a[:-1] * cur[0:n_space]
                + b[1:] * cur[1:n_space + 1]
                - u[1:n_space + 1, t]
            )
    return u[:n_space + 1]


def _reference_response(coeffs, length, precision):
    n_space = coeffs.size if coeffs.is_finite else length
    u = _reference_field(coeffs, BoundaryControl.impulse(length), length,
                         n_space, precision)
    row = u[1, 2:length + 2]
    return ResponseVector(row.real if np.iscomplexobj(row) else row).values


def _reference_operator(coeffs, horizon, precision):
    u = _reference_field(coeffs, BoundaryControl.impulse(horizon), horizon,
                         horizon, precision)
    w = u[1:horizon + 1, 2:horizon + 2]
    return ControlOperatorMatrix(matrix=w.real if np.iscomplexobj(w) else w,
                                 horizon=horizon).matrix


def _outcome(fn):
    """repr, type, dtype, shape and layout of every cell, or the exception."""
    try:
        arr = fn()
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)
    return (arr.shape, arr.dtype, arr.flags.c_contiguous,
            [(type(v), repr(v)) for v in arr.ravel().tolist()])


IDENTITY_FAMILIES = {
    "free": FREE,
    "geometric2": JacobiCoefficients.geometric(2),
    "geometric3": JacobiCoefficients.geometric(3),  # overflows DOUBLE
    "geometric1.7": JacobiCoefficients.geometric(1.7),
    "random30": random_coefficients(np.random.default_rng(5), 30),
    "random3": random_coefficients(np.random.default_rng(6), 3),  # wall echoes
}


_CONTROL_ROUTES = {
    "solve_semi_infinite":
        lambda control, *horizon: solve_semi_infinite(B1, control, *horizon),
    "solve_finite":
        lambda control, *horizon: solve_finite(B1, 3, control, *horizon),
    "solution_via_spectrum":
        lambda control, *horizon: solution_via_spectrum(B1, 3, control,
                                                        *horizon),
}


@pytest.mark.parametrize("route", _CONTROL_ROUTES.values(),
                         ids=_CONTROL_ROUTES)
@pytest.mark.parametrize("wrap", [list, BoundaryControl],
                         ids=["list", "BoundaryControl"])
def test_every_route_reads_a_control_alike(route, wrap):
    # the horizon defaults to the control's length, a shorter control is
    # zero-extended, and a longer one is refused with one message, never cut
    control = wrap([1.0, 2.0, 3.0, 4.0, 5.0])
    field = route(control)
    assert field.horizon == 5
    assert list(field.values[0]) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0]
    assert list(route(control, 7).values[0, 1:8]) == [1, 2, 3, 4, 5, 0, 0]
    with pytest.raises(ValueError, match=re.escape(
            "the control has 5 values, more than the horizon 3; pass a "
            "shorter control")):
        route(control, 3)


def _apply_response_route(control, horizon):
    return apply_response(response_vector(B1, 7), control, horizon)


def _operator_route(control, horizon):
    return control_operator(B1, horizon).apply(control)


@pytest.mark.parametrize("route", [_apply_response_route, _operator_route],
                         ids=["apply_response", "ControlOperatorMatrix.apply"])
@pytest.mark.parametrize("wrap", [list, BoundaryControl],
                         ids=["list", "BoundaryControl"])
def test_response_maps_read_a_control_as_the_solvers(route, wrap):
    # a shorter control is zero-extended, and a longer one is refused with
    # the solvers' message where it was cut or refused with another
    control = wrap([1.0, 2.0, 3.0, 4.0, 5.0])
    field = solve_semi_infinite(B1, control, 7)
    want = (field.values[1, 2:] if route is _apply_response_route
            else field.state(7))
    assert np.max(np.abs(route(control, 7) - want)) < 1e-12
    with pytest.raises(ValueError, match=re.escape(
            "the control has 5 values, more than the horizon 3; pass a "
            "shorter control")):
        route(control, 3)


def test_operator_applies_a_shorter_control_exactly():
    co, horizon = JacobiCoefficients.geometric(3), 9
    control = [Fraction(1, 3), -2, Fraction(5, 7)]
    got = control_operator(co, horizon, PrecisionMode.RATIONAL).apply(control)
    want = solve_semi_infinite(co, control, horizon,
                               PrecisionMode.RATIONAL).state(horizon)
    assert list(got) == list(want)


def test_apply_response_needs_a_value_per_output():
    r = response_vector(FREE, 6)
    with pytest.raises(InsufficientDataError, match=re.escape(
            "insufficient response data: need 7 values, got 6")):
        apply_response(r, [1.0] * 7)


def test_apply_response_refuses_an_empty_horizon():
    r = response_vector(FREE, 6)
    with pytest.raises(ValueError, match="^horizon must be >= 1$"):
        apply_response(r, [])
    # an empty control read at a horizon is the zero control, as in the
    # solvers
    assert apply_response(r, [], horizon=3).tolist() == [0.0, 0.0, 0.0]


def test_exact_modes_keep_ints_numpy_would_round():
    # a_40 = 3**40 lies in [2^63, 2^64), where numpy rounds a list of ints
    # to float64; the diagonal of W_T is a_0 a_1 ... a_k
    co = JacobiCoefficients.geometric(3)
    w = control_operator(co, 41, PrecisionMode.RATIONAL).matrix
    assert w[40, 40] == 3 ** sum(range(41))


def test_operator_diagonal_is_the_wavefront_amplitude():
    co = JacobiCoefficients.from_arrays([1, 0.5, 2.0, 0.25], [0.1, 0, -1, 3])
    w = control_operator(co, 4)
    assert list(w.diagonal) == [1.0, 0.5, 1.0, 0.25]


class TestSweepMatchesFullField:
    """The cone sweep reproduces every bit of the full-field loop in
    DOUBLE and RATIONAL, and is as accurate as its mpf loop in EXTENDED
    (``_assert_as_accurate``)."""

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    @pytest.mark.parametrize("name", IDENTITY_FAMILIES)
    def test_identical_outputs(self, name, precision):
        co = IDENTITY_FAMILIES[name]
        rng = np.random.default_rng(11)
        size = co.size if co.is_finite else 7  # a finite section of a rule

        def check(got, reference):
            if precision is PrecisionMode.EXTENDED:
                _assert_as_accurate(got, lambda: reference(precision),
                                    lambda: reference(EXACT))
            else:
                assert _outcome(got) == _outcome(lambda: reference(precision))

        for horizon in (1, 2, 5, 17, 40):
            check(lambda: response_vector(co, horizon, precision).values,
                  lambda mode: _reference_response(co, horizon, mode))
            check(lambda: control_operator(co, horizon, precision).matrix,
                  lambda mode: _reference_operator(co, horizon, mode))
            real = list(rng.uniform(-1, 1, horizon))
            cplx = list(rng.uniform(-1, 1, horizon) + 1j * rng.uniform(-1, 1, horizon))
            for ctrl in (BoundaryControl.impulse(horizon), real, cplx):
                check(lambda: solve_semi_infinite(
                    co, ctrl, horizon, precision).values,
                    lambda mode: WaveField(_reference_field(
                        co, ctrl, horizon, horizon, mode),
                        horizon, horizon).values)
                check(lambda: solve_finite(
                    co, size, ctrl, horizon, precision).values,
                    lambda mode: WaveField(_reference_field(
                        co, ctrl, horizon, size, mode), size, horizon).values)

    def test_long_response_identical(self):
        rng = np.random.default_rng(12)
        co = random_coefficients(rng, 300, a_range=(0.9, 1.1))
        for length in (299, 600, 601):
            assert _outcome(lambda: response_vector(co, length).values) \
                == _outcome(lambda: _reference_response(co, length, PrecisionMode.DOUBLE))


def test_response_memory_is_linear_in_length():
    rng = np.random.default_rng(13)
    co = random_coefficients(rng, 2048, a_range=(0.9, 1.1))
    response_vector(co, 8)
    tracemalloc.start()
    try:
        r = response_vector(co, 2047)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(r) == 2047
    assert peak < 1_000_000  # the full field took 67 MB


class TestFieldMemoryGuard:
    @pytest.mark.parametrize("solve", [
        lambda h: solve_semi_infinite(FREE, [1], h),
        lambda h: solve_finite(FREE, h, [1], h),
        lambda h: control_operator(FREE, h),
        lambda h: control_operator(FREE, h, PrecisionMode.EXTENDED),
    ])
    def test_refused_before_allocating(self, solve):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(JacobiBCError, match="physical memory"):
                solve(10_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 10_000_000

    @pytest.mark.parametrize("precision, cell", [
        (PrecisionMode.DOUBLE, 8), (PrecisionMode.RATIONAL, 56)])
    def test_limit_is_the_size_estimate(self, monkeypatch, precision, cell):
        need = (4 + 1) * (6 + 2) * cell
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: need)
        assert solve_finite(B1, 4, [1], 6, precision).values.shape == (5, 8)
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: need - 1)
        with pytest.raises(JacobiBCError, match="physical memory"):
            solve_finite(B1, 4, [1], 6, precision)


def test_double_overflow_is_a_conditioning_error():
    geo2 = JacobiCoefficients.geometric(2)  # a_1024 = 2**1024 > float max
    with pytest.raises(ConditioningError, match="--precision extended"):
        response_vector(geo2, 1030)
    with pytest.raises(ConditioningError, match="exceeds double precision"):
        solve_semi_infinite(geo2, [1], 1100)


@pytest.mark.parametrize("big", [10 ** 400, mpmath.mpf("1e400"),
                                 mpmath.mpf("inf")],
                         ids=["int", "mpf", "mpf infinity"])
def test_double_refuses_a_coefficient_beyond_float64_in_every_spelling(big):
    # an mpf b_2 beyond float64 gave the response [1, 0, nan, nan, nan]
    co = JacobiCoefficients.from_arrays([1, 1, 1], [0, big, 0])
    with pytest.raises(ConditioningError, match="exceeds double precision"):
        response_vector(co, 5)


class TestFieldPeakMemory:
    # The guard's estimate is the field, (n+1)(T+2) cells; besides it a
    # solve holds an O(n + T) working set (two slices, the lifted
    # coefficients, the coefficient memo), under 128 bytes per site.
    @pytest.mark.parametrize("solve", [
        lambda h: solve_semi_infinite(JacobiCoefficients.free(), [1], h),
        lambda h: control_operator(JacobiCoefficients.free(), h),
    ])
    def test_peak_is_the_field(self, solve):
        horizon = 1000
        field = (horizon + 1) * (horizon + 2) * 8
        tracemalloc.start()
        try:
            solve(horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field + 128 * 2 * horizon  # a second copy would not fit

    def test_wave_field_keeps_the_solver_array(self):
        field = solve_semi_infinite(FREE, [1], 5)
        assert field.values.base is None and not field.values.flags.writeable
        caller = np.zeros((6, 7))
        assert WaveField(caller, 5, 5).values is not caller


def _cone_sweep(ctrl, a, b, out):
    """The cone sweep with the one-expression step the four-call kernel
    replaced, kept verbatim as the oracle (a = (a_0, ..., a_{n-1}, 0),
    b = (0, b_1, ..., b_n))."""
    n_space, horizon, watched = len(b) - 1, len(ctrl), len(out)
    prev = np.full(n_space + 2, a[-1], dtype=out.dtype)
    cur = prev.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            cur[0] = ctrl[t]
            k = min(t + 1, n_space, watched + horizon - t - 1)
            prev[1:k + 1] = (
                a[1:k + 1] * cur[2:k + 2]
                + a[:k] * cur[:k]
                + b[1:k + 1] * cur[1:k + 1]
                - prev[1:k + 1]
            )
            prev, cur = cur, prev
            out[:, t] = cur[1:watched + 1]


def _cone_watched(coeffs, control, horizon, n_space, watched, precision):
    """Sites 1..watched at t = 1..horizon by the oracle sweep, lifted as
    the solvers lifted their coefficients before the kernel changed."""
    ctrl = _reference_control(control, horizon, precision)
    a = _oracle_lift(coeffs.a_head(n_space) + [0], precision)
    b = _oracle_lift([0] + coeffs.b_head(n_space), precision)
    out = np.empty((watched, horizon), dtype=np.result_type(a, ctrl))
    _cone_sweep(ctrl, a, b, out)
    return ctrl, out


def _cone_outputs(coeffs, size, control, horizon, precision):
    """response_vector, solve_finite and control_operator by the oracle."""
    def field():
        ctrl, interior = _cone_watched(coeffs, control, horizon, size, size,
                                       precision)
        out = np.zeros((size + 1, horizon + 2), dtype=interior.dtype)
        out[0, 1:horizon + 1] = ctrl
        out[1:, 2:] = interior
        return out

    n_space = coeffs.size if coeffs.is_finite else horizon
    return [lambda: _cone_watched(coeffs, [1], horizon, n_space, 1,
                                  precision)[1][0],
            field,
            lambda: _cone_watched(coeffs, [1], horizon, horizon, horizon,
                                  precision)[1]]


def _solver_outputs(coeffs, size, control, horizon, precision):
    return [lambda: response_vector(coeffs, horizon, precision).values,
            lambda: solve_finite(coeffs, size, control, horizon,
                                 precision).values,
            lambda: control_operator(coeffs, horizon, precision).matrix]


def _bits(fn):
    """Shape, dtype and the exact bits of every cell (float bytes, mpf
    ``_mpf_`` or mpc ``_mpc_``, Fraction numerator and denominator), or
    the exception."""
    try:
        arr = np.asarray(fn())
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)
    if arr.dtype != object:
        return arr.shape, arr.dtype, arr.tobytes()
    return arr.shape, [_cell_bits(v) for v in arr.ravel().tolist()]


def _cell_bits(v):
    for field in ("_mpf_", "_mpc_"):
        if hasattr(v, field):
            return type(v), getattr(v, field)
    return type(v), v.numerator, v.denominator


_ZEROS_AND_REALS = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)


@st.composite
def _sweep_cases(draw):
    """(coefficients, finite size, control, horizon, precision).  DOUBLE
    horizons reach past three 64-site widths; the 2^n family overflows
    to inf and then NaN; the unchecked family has negative or -0.0 a and
    NaN b, which no validated input holds."""
    precision = draw(st.sampled_from(list(PrecisionMode)))
    double = precision is PrecisionMode.DOUBLE
    horizon = draw(st.integers(1, 200 if double else 10))
    length = draw(st.sampled_from([horizon + 1, max(horizon // 2, 1)]))
    kind = draw(st.sampled_from(
        ["random", "geometric"] + ["unchecked"] * double))
    if kind == "geometric":
        coeffs = JacobiCoefficients.geometric(2)
    else:
        a = st.floats(0.5, 2.0)
        b = _ZEROS_AND_REALS
        if kind == "unchecked":
            a = st.sampled_from([0.75, -0.0, -1.25]) | a
            b = st.just(float("nan")) | b
        coeffs = JacobiCoefficients.from_arrays(
            [1.0] + draw(st.lists(a, min_size=length - 1, max_size=length - 1)),
            draw(st.lists(b, min_size=length, max_size=length)))
    size = draw(st.integers(1, horizon + 1))
    if coeffs.is_finite:
        size = min(size, coeffs.size)
    control = draw(st.lists(_ZEROS_AND_REALS, min_size=1, max_size=horizon))
    if draw(st.booleans()):
        imag = draw(st.lists(_ZEROS_AND_REALS, min_size=len(control),
                             max_size=len(control)))
        control = [complex(x, y) for x, y in zip(control, imag)]
    return coeffs, size, control, horizon, precision


def _sweep_example(kind, precision, horizon, length, size, complex_control):
    """One fixed case of each branch of ``_sweep_cases``, so the drawn
    examples may move without a branch going unchecked."""
    if kind == "geometric":
        coeffs = JacobiCoefficients.geometric(2)
    else:
        a = [1.0] + [0.5 + (k % 7) / 4 for k in range(length - 1)]
        b = [(k % 5) / 4 - 0.5 if k % 3 else -0.0 for k in range(length)]
        if kind == "unchecked":
            a[1:4] = [0.75, -0.0, -1.25]
            b[1] = float("nan")
        coeffs = JacobiCoefficients.from_arrays(a, b)
    control = [1.0, -0.0, 0.5, 0.0, -0.75][:horizon]
    if complex_control:
        control = [complex(v, -0.5) for v in control]
    return coeffs, size, control, horizon, precision


@settings(max_examples=100)
@given(case=_sweep_cases())
@example(case=_sweep_example("random", PrecisionMode.DOUBLE, 150, 75, 40, True))
@example(case=_sweep_example("geometric", PrecisionMode.DOUBLE, 200, 0, 130, False))
@example(case=_sweep_example("unchecked", PrecisionMode.DOUBLE, 130, 131, 9, True))
# horizons at and one step past two 64-site width runs, and at four
@example(case=_sweep_example("random", PrecisionMode.DOUBLE, 128, 129, 128, True))
@example(case=_sweep_example("unchecked", PrecisionMode.DOUBLE, 129, 65, 65, False))
@example(case=_sweep_example("random", PrecisionMode.DOUBLE, 256, 257, 200, True))
# one site of the full field: the sweep collects it and writes it once
@example(case=_sweep_example("random", PrecisionMode.DOUBLE, 140, 141, 1, True))
@example(case=_sweep_example("random", PrecisionMode.EXTENDED, 10, 11, 6, False))
@example(case=_sweep_example("geometric", PrecisionMode.EXTENDED, 9, 0, 10, True))
@example(case=_sweep_example("random", PrecisionMode.RATIONAL, 10, 11, 5, False))
@example(case=_sweep_example("geometric", PrecisionMode.RATIONAL, 10, 0, 7, False))
def test_sweep_kernel_equals_the_one_expression_step(case):
    # DOUBLE and RATIONAL keep the bits of the one-expression step;
    # EXTENDED keeps its number types and is no less accurate than it
    # against the same step on the dyadic inputs in exact arithmetic
    exact = _cone_outputs(*case[:-1], EXACT)
    for got, want, truth in zip(_solver_outputs(*case), _cone_outputs(*case),
                                exact):
        if case[-1] is PrecisionMode.EXTENDED:
            _assert_as_accurate(got, want, truth)
            continue
        assert _bits(got) == _bits(want)


@given(horizon=st.integers(1, 300), n_space=st.integers(1, 300),
       watched=st.integers(1, 300), quantum=st.sampled_from([1, 2, 7, 64]))
@example(horizon=2047, n_space=2048, watched=1, quantum=64)
@example(horizon=300, n_space=300, watched=300, quantum=64)
def test_sweep_runs_give_each_step_its_width(horizon, n_space, watched,
                                             quantum):
    # maximal runs that tile the steps, each step with the cone width
    # min(t + 1, n_space, watched + horizon - t - 1) rounded up to the
    # quantum and capped at n_space, evaluated step by step here
    runs = list(_multiprec._runs(horizon, n_space, watched, quantum))
    assert [start for start, _, _ in runs] == [0] + [
        stop for _, stop, _ in runs[:-1]]
    assert runs[-1][1] == horizon
    assert all(a[2] != b[2] for a, b in zip(runs, runs[1:]))
    assert [k for start, stop, k in runs for _ in range(start, stop)] == [
        min(-(-min(t + 1, n_space, watched + horizon - t - 1) // quantum)
            * quantum, n_space) for t in range(horizon)]


@pytest.mark.parametrize("coeffs", [
    JacobiCoefficients.from_rules(lambda n: 1 - 0.5 / (n + 1) ** 2,
                                  lambda n: (-1) ** n * 0.3 / (n + 1) ** 2),
    JacobiCoefficients.from_arrays([1.0] + [0.5 + (k % 7) / 4
                                            for k in range(1, 300)],
                                   [-0.0 if k % 3 else 0.25
                                    for k in range(300)]),
    JacobiCoefficients.geometric(2),    # inf, then NaN
], ids=["real", "finite", "overflow"])
def test_response_vector_is_the_first_operator_row(coeffs):
    # the one watched site the sweep collects, against the column writes
    # of the full operator
    horizon = 150
    got = _bits(lambda: response_vector(coeffs, horizon).values)
    assert got == _bits(lambda: control_operator(coeffs, horizon).matrix[0])
    assert got[0] == (horizon,)    # values, not an error on both sides


def _coefficient_routes():
    """Each route that reads coefficients, once per mode where it takes
    one: (route(coeffs, horizon, precision), precision)."""
    moded = {
        "solve_semi_infinite":
            lambda co, T, p: solve_semi_infinite(co, [1.0], T, p),
        "solve_finite": lambda co, T, p: solve_finite(co, T, [1.0], T, p),
        "response_vector": response_vector,
        "control_operator": control_operator,
        "kernel_krein":
            lambda co, T, p: kernel_finite(co, 1j, 0.5, T, "krein", p),
    }
    for name, route in moded.items():
        for precision in PrecisionMode:
            yield pytest.param(route, precision,
                               id=f"{name}-{precision.value}")
    yield pytest.param(lambda co, T, p: kernel_finite(co, 1j, 0.5, T), None,
                       id="kernel_direct")
    yield pytest.param(lambda co, T, p: hermite_biehler(co, T), None,
                       id="hermite_biehler")
    yield pytest.param(lambda co, T, p: kernel_infinite(co, 1j, 0.5), None,
                       id="kernel_infinite")
    # the routes that read the coefficients through the accessors alone,
    # and the accessors themselves
    unmoded = {
        "eval_p_all": lambda co, T: eval_p_all(co, T, 0.5),
        "eval_q_all": lambda co, T: eval_q_all(co, T, 0.5),
        "deficiency_partial_sums": deficiency_partial_sums,
        "circle_bound_hankel": circle_bound_hankel,
        "circle_bound_connecting": circle_bound_connecting,
        "extension_parameter": extension_parameter,
        "accessors_a_b": lambda co, T: [(co.a(n - 1), co.b(n))
                                        for n in range(1, T + 1)],
        "accessors_a_head_b_head": lambda co, T: (co.a_head(T), co.b_head(T)),
    }
    for name, route in unmoded.items():
        yield pytest.param(lambda co, T, p, route=route: route(co, T), None,
                           id=name)


COMPLEX_FAMILIES = [
    (JacobiCoefficients.from_rules(lambda n: 1, lambda n: 0.5j), 4, "b_1"),
    (JacobiCoefficients.from_arrays([1, 1, 1j, 1], [0, 0, 0, 0]), 4, "a_2"),
    (JacobiCoefficients.from_arrays(
        [1, lift([2 + 1j], PrecisionMode.EXTENDED)[0]], [0, 0]), 2, "a_1"),
    # np.asarray turns the list complex; the complex entry is still b_3
    (JacobiCoefficients.from_arrays([1, 1, 1, 1], [0, 0, 0j, 0]), 4, "b_3"),
]
COMPLEX_IDS = ["complex_b", "complex_a", "mpc_a", "zero_imaginary_b"]


@pytest.mark.parametrize("route, precision", _coefficient_routes())
@pytest.mark.parametrize("coeffs, horizon, entry", COMPLEX_FAMILIES,
                         ids=COMPLEX_IDS)
def test_coefficient_routes_refuse_complex_coefficients(
        route, precision, coeffs, horizon, entry):
    with pytest.raises(ComplexDataError, match=f"^{entry} = "):
        route(coeffs, horizon, precision)


@pytest.mark.parametrize("family, issues", zip(COMPLEX_FAMILIES, [
    tuple(f"b_{n} is not finite" for n in range(1, 65)),
    ("a_2 is not finite",),
    ("a_1 is not finite",),
    ("b_3 is not finite",),
]), ids=COMPLEX_IDS)
def test_validation_still_reports_on_complex_families(family, issues):
    # report-style: it reads the raw entries, never the refusing accessors
    report = validate_coefficients(family[0])
    assert (report.valid, report.issues) == (False, issues)


def test_lazy_routes_name_the_first_complex_entry_they_read():
    # b_1 is read (p_2) before a_2 (p_3); a reader of whole heads reads
    # a first
    co = JacobiCoefficients.from_arrays([1, 1, 1j, 1], [1j, 0, 0, 0])
    with pytest.raises(ComplexDataError, match="^b_1 = "):
        kernel_finite(co, 1j, 0.5, 4)
    with pytest.raises(ComplexDataError, match="^a_2 = "):
        response_vector(co, 4)


@pytest.mark.parametrize("precision",
                         [PrecisionMode.EXTENDED, PrecisionMode.RATIONAL])
def test_object_rows_never_reach_the_float_kernel(monkeypatch, precision):
    co = JacobiCoefficients.from_arrays(
        [1.0, 0.5, 2.0, 1.5, 0.75, 1.25], [0.25, -1.0, 0.0, 0.75, 0.5, -0.25])
    calls = [lambda: control_operator(co, 6, precision).matrix,
             lambda: response_vector(co, 6, precision).values,
             lambda: solve_finite(co, 3, [1.0, -0.5], 6, precision).values]
    before = [call() for call in calls]

    def refuse(*args):
        raise AssertionError("object rows reached the float kernel")

    monkeypatch.setattr(_multiprec, "_float_sweep", refuse)
    for call, want in zip(calls, before):
        got = call()
        assert _bits(lambda: got) == _bits(lambda: want)
    with pytest.raises(AssertionError, match="float kernel"):
        control_operator(co, 6)


@pytest.mark.parametrize("a, b", [([1.0, math.inf, 1.0], [0.0, 0.0, 0.0]),
                                  ([1.0, 1.0, 1.0], [0.0, math.nan, 0.0])])
def test_extended_sweep_refuses_inf_and_nan(a, b):
    # the integer slices cannot hold them; the mpf step made NaN cells
    co = JacobiCoefficients.from_arrays(a, b)
    with pytest.raises(ConditioningError, match="inf or NaN"):
        control_operator(co, 3, PrecisionMode.EXTENDED)
