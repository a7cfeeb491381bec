import math
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from mpmath import libmp

from jacobi_bc import (
    ComplexDataError,
    ConditioningError,
    ConditioningWarning,
    InsufficientDataError,
    JacobiBCError,
    JacobiCoefficients,
    NotAMomentSequenceError,
    NotAResponseVectorError,
    PrecisionMode,
    build_hankel,
    connecting_from_response,
    control_operator,
    hankel_min_eigs,
    moments_to_response,
    recover_from_moments,
    recover_from_response,
    response_to_moments,
    response_vector,
    validate_response,
)

from jacobi_bc import inverse
from jacobi_bc.moments import _response_data
from jacobi_bc._multiprec import (_EXTENDED, _Ints, _int_form, lift,
                                  modified_chebyshev, pd_factor)

from conftest import dot_conversion, random_coefficients, semicircle_moments

FREE = JacobiCoefficients.free()


class TestRecoverFromResponse:
    def test_free(self):
        result = recover_from_response(response_vector(FREE, 19), 10)
        assert np.max(np.abs(result.a - 1.0)) == 0.0
        assert np.max(np.abs(result.b)) == 0.0
        assert result.residual == 0.0
        assert result.path == "BoundaryControl"

    def test_ones_response(self):
        result = recover_from_response([1, 1, 1], 2)
        assert np.allclose(result.a, [1.0]) and np.allclose(result.b, [1.0])

    def test_double_round_trip(self, rng):
        size = 12
        for _ in range(5):
            co = random_coefficients(rng, size)
            r = response_vector(co, 2 * size - 1)
            rec = recover_from_response(r, size)
            assert np.max(np.abs(rec.a - co.a_head(size)[1:])) < 1e-6
            assert np.max(np.abs(rec.b - co.b_head(size - 1))) < 1e-6

    def test_extended_round_trip(self, rng):
        size = 15
        co = random_coefficients(rng, size)
        r = response_vector(co, 2 * size - 1, PrecisionMode.EXTENDED)
        rec = recover_from_response(r, size, PrecisionMode.EXTENDED)
        assert np.max(np.abs(rec.a - co.a_head(size)[1:])) < 1e-12
        assert np.max(np.abs(rec.b - co.b_head(size - 1))) < 1e-12

    def test_rational_exact(self):
        co = JacobiCoefficients.from_arrays(
            [1, Fraction(3, 2), Fraction(1, 2)], [Fraction(-1, 4), 1, 0])
        r = response_vector(co, 5, PrecisionMode.RATIONAL)
        rec = recover_from_response(r, 3, PrecisionMode.RATIONAL)
        assert np.array_equal(rec.a, [1.5, 0.5])
        assert np.array_equal(rec.b, [-0.25, 1.0])

    def test_rejects_non_response(self):
        with pytest.raises(NotAResponseVectorError):
            recover_from_response([1, 2, 0], 2)

    @pytest.mark.parametrize("precision", [PrecisionMode.RATIONAL,
                                           PrecisionMode.EXTENDED])
    def test_exact_response_beyond_float64(self, precision):
        # geometric(3)'s exact response passes 1.8e308 at r_50, inside
        # the window of T = 30, and so does its float64 re-simulation:
        # the residual is inf, and the coefficients are recovered
        r = response_vector(JacobiCoefficients.geometric(3), 59,
                            PrecisionMode.RATIONAL).as_array()
        rec = recover_from_response(r, 30, precision)
        assert rec.residual == math.inf
        assert np.array_equal(rec.a, 3.0 ** np.arange(1, 30))
        assert np.array_equal(rec.b, np.zeros(29))

    def test_conditioning_guard(self):
        # growing off-diagonals spread the pivots over > 10 decades while
        # the factorization itself still succeeds
        co = JacobiCoefficients.from_rules(
            lambda n: 1 if n == 0 else 3.0, lambda n: 0.0)
        r = response_vector(co, 45)
        with pytest.raises(ConditioningError):
            recover_from_response(r, 23)

    def test_cholesky_factor_is_control_operator(self, rng):
        # the uniqueness anchor: chol(C_T) with positive diagonal equals
        # the simulated W_T entry by entry
        size = 10
        co = random_coefficients(rng, size)
        r = response_vector(co, 2 * size - 1)
        top = connecting_from_response(r, size).matrix
        upper = scipy.linalg.cholesky(top, lower=False)
        w = control_operator(co, size).matrix
        assert np.max(np.abs(upper - w)) < 1e-8 * max(1.0, np.max(np.abs(w)))

    def test_residual_reported(self, rng):
        co = random_coefficients(rng, 8)
        rec = recover_from_response(response_vector(co, 15), 8)
        assert rec.residual < 1e-8


class TestRecoverFromMoments:
    def test_semicircle_truncation(self):
        result = recover_from_moments([1, 0, 1], 2)
        assert np.allclose(result.a, [1.0]) and np.allclose(result.b, [0.0])
        assert result.path == "Hankel"

    def test_b1_moments(self):
        result = recover_from_moments([1, 1, 2], 2)
        assert np.allclose(result.a, [1.0]) and np.allclose(result.b, [1.0])

    def test_singular_hankel_rejected(self):
        with pytest.raises(NotAMomentSequenceError):
            recover_from_moments([1, 1, 1], 2)

    def test_paths_agree(self, rng):
        size = 10
        co = random_coefficients(rng, size)
        r = response_vector(co, 2 * size - 1)
        s = response_to_moments(r)
        via_moments = recover_from_moments(s, size)
        via_response = recover_from_response(r, size)
        assert np.max(np.abs(via_moments.a - via_response.a)) < 1e-8
        assert np.max(np.abs(via_moments.b - via_response.b)) < 1e-8

    def test_rational_exact(self):
        co = JacobiCoefficients.from_arrays(
            [1, Fraction(1, 2), 2], [1, Fraction(1, 3), 0])
        s = response_to_moments(
            response_vector(co, 5, PrecisionMode.RATIONAL),
            PrecisionMode.RATIONAL)
        rec = recover_from_moments(s, 3, PrecisionMode.RATIONAL)
        assert np.array_equal(rec.a, [0.5, 2.0])
        assert abs(rec.b[0] - 1.0) < 1e-15
        assert abs(rec.b[1] - 1 / 3) < 1e-15

    @pytest.mark.parametrize("name", ["inf", "nan"])
    def test_extended_inf_or_nan_moment_rejected(self, name):
        # an mpf inf or NaN has mantissa 0, but it is not a zero moment
        s = [1, 0, 1, 0, mpmath.mpf(name)]
        with pytest.raises(ConditioningError, match="inf or NaN"):
            recover_from_moments(s, 3, PrecisionMode.EXTENDED)

    def test_nan_gap_fails_the_cross_check(self):
        # a_1 = 1e400 is beyond float64: both paths give a_1 = inf, and
        # inf - inf is a NaN gap, which must not pass as agreement
        with pytest.raises(JacobiBCError, match="disagree by nan"):
            recover_from_moments([1, 0, 10 ** 800], 2, PrecisionMode.EXTENDED)

    def test_the_paths_may_disagree_by_1e_8_and_no_more(self):
        # a_n = 1, b_n = 1/4, from its exact moments rounded to float64:
        # the DOUBLE paths differ by 1.1e-9 at T = 13 and by 2.7e-7 at
        # T = 15, either side of the 1e-8 the cross-check allows
        co = JacobiCoefficients.from_rules(lambda n: 1, lambda n: 0.25)
        exact = response_to_moments(
            response_vector(co, 29, PrecisionMode.RATIONAL),
            PrecisionMode.RATIONAL)
        s = [float(x) for x in exact]
        recover_from_moments(s, 13)
        with pytest.raises(JacobiBCError, match="disagree by") as refused:
            recover_from_moments(s, 15)
        gap = float(str(refused.value).split("disagree by ")[1].split(";")[0])
        assert 1e-8 < gap < 1e-4


class TestFactorization:
    def test_exact_ldl_agrees_with_lapack(self, rng):
        co = random_coefficients(rng, 8)
        conn = connecting_from_response(response_vector(co, 15), 8).matrix
        exact = lift(conn, PrecisionMode.RATIONAL)
        low, piv = pd_factor(exact)
        assert ((low * piv) @ low.T == exact).all()   # no rounding at all
        low_f, piv_f = pd_factor(conn)
        assert np.allclose(low.astype(float), low_f, rtol=1e-10, atol=1e-12)
        assert np.allclose(piv.astype(float), piv_f, rtol=1e-10)

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    def test_indefinite_raises(self, precision):
        with pytest.raises(np.linalg.LinAlgError):
            pd_factor(lift([[1.0, 2.0], [2.0, 1.0]], precision))


def test_moment_recovery_simulates_once(monkeypatch):
    from jacobi_bc import inverse
    calls = []
    real = inverse.response_vector
    monkeypatch.setattr(inverse, "response_vector",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    s = response_to_moments(response_vector(FREE, 11)).as_array()
    result = recover_from_moments(s, 6)
    assert np.allclose(result.a, 1.0) and np.allclose(result.b, 0.0, atol=1e-12)
    assert calls == [1]  # the residual's; the cross-check converts moments


@pytest.mark.parametrize("recover, data", [
    (recover_from_response, [1, 0, 0, 0]),   # free response, one short
    (recover_from_moments, [1, 0, 1, 0]),    # semicircle moments, one short
])
def test_short_data_is_insufficient(recover, data):
    with pytest.raises(InsufficientDataError):
        recover(data, 3)


@pytest.mark.parametrize("precision", list(PrecisionMode))
@pytest.mark.parametrize("recover, name", [(recover_from_response, "r"),
                                           (recover_from_moments, "s")])
@pytest.mark.parametrize("data, at", [
    ([1 + 1j, 0, 1, 0, 2], 0),
    # complex dtype: the first entry with a nonzero imaginary part
    (np.array([1, 0, 2 + 0j, 0.5j, 2]), 3),
    (np.array([1, 0, 1, 0, lift([1j], PrecisionMode.EXTENDED)[0]],
              dtype=object), 4),
], ids=["complex", "complex128", "mpc"])
def test_complex_data_are_refused(recover, name, data, at, precision):
    # one validation error naming the entry, in every mode; no imaginary
    # part is dropped on the way
    with pytest.raises(ComplexDataError, match=f"^{name}_{at} = "):
        recover(data, 3, precision)


@pytest.mark.parametrize("recover, name", [(recover_from_response, "r"),
                                           (recover_from_moments, "s")])
def test_a_complex_entry_past_the_head_is_named(recover, name):
    # the data are checked whole, not only the 2T - 1 values the
    # recurrence reads, so the complex dtype is never blamed on r_0
    with pytest.raises(ComplexDataError, match=f"^{name}_5 = 1j is complex"):
        recover([1, 0, 1, 0, 2, 1j], 3)


@pytest.mark.parametrize("horizon", [36, 37, 38])
def test_catalan_moments_recover_exactly_in_rational(horizon):
    # s_72 = C_36 lies in [2^63, 2^64), where numpy rounds a list of ints
    # to float64; T = 37 read the rounded moments and failed at pivot 31
    s = semicircle_moments(2 * horizon - 1)
    rec = recover_from_moments(s, horizon, PrecisionMode.RATIONAL)
    assert rec.a.tolist() == [1.0] * (horizon - 1)
    assert rec.b.tolist() == [0.0] * (horizon - 1)
    assert rec.residual == 0.0


def test_a_coefficient_whose_square_leaves_float64_keeps_its_float():
    # a_8 = 10^160 of geometric(10^20) has the pivot ratio beta_8 = 10^320,
    # beyond float64: the root is taken before beta_k leaves the mode, so
    # a_8..a_11 = 10^160..10^220 come back as floats, not inf; the
    # re-simulated response overflows, so the residual stays inf
    r = response_vector(JacobiCoefficients.geometric(10 ** 20), 23,
                        PrecisionMode.RATIONAL)
    want = [float(10 ** (20 * k)) for k in range(1, 12)]
    for precision in (PrecisionMode.EXTENDED, PrecisionMode.RATIONAL):
        rec = recover_from_response(r, 12, precision)
        assert rec.a.tolist() == want and rec.b.tolist() == [0.0] * 11
        assert rec.residual == math.inf


def test_a_diagonal_beyond_float64_comes_back_as_inf():
    # a RecoveryResult holds +-inf for a coefficient beyond float64 and
    # re-simulates that family, so no coefficient accessor refuses inf
    co = JacobiCoefficients.from_arrays([1, 1, 1], [10 ** 400, 0, 0])
    r = response_vector(co, 5, PrecisionMode.RATIONAL)
    rec = recover_from_response(r, 3, PrecisionMode.RATIONAL)
    assert rec.a.tolist() == [1.0, 1.0] and rec.b.tolist() == [math.inf, 0.0]
    assert rec.residual == math.inf


def test_int_data_round_as_their_floats_in_double():
    # an int in [2^63, 2^64) is read exactly and rounds to the float64
    # that numpy made of it, so DOUBLE outputs keep their bits
    s = semicircle_moments(73)
    floats = [float(x) for x in s]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for route in (lambda d: response_to_moments(d).values,
                      lambda d: moments_to_response(d).values,
                      lambda d: hankel_min_eigs(d, 37),
                      lambda d: recover_from_moments(d, 18).a,
                      lambda d: recover_from_response(d, 30).b):
            got, want = route(s), route(floats)
            assert got.dtype == want.dtype == float
            assert got.tobytes() == want.tobytes()
    for data in (s, floats):
        with pytest.raises(NotAMomentSequenceError,
                           match="pivot 31 is not positive"):
            recover_from_moments(data, 37)


def test_the_object_modes_take_data_below_the_double_pivot_floor():
    # no pivot ratio is formed where no floor applies: the object modes
    # recover data whose smallest ratio is far below DOUBLE's 1e-10
    # (geometric(10): 1e-66; geometric(10^20), as the pinned roots: 0.0
    # in float64), and DOUBLE refuses the same data
    for q, horizon in ((10, 12), (10 ** 20, 12)):
        r = response_vector(JacobiCoefficients.geometric(q),
                            2 * horizon - 1, PrecisionMode.RATIONAL)
        want = [float(q) ** k for k in range(1, horizon)]
        for precision in (PrecisionMode.EXTENDED, PrecisionMode.RATIONAL):
            assert recover_from_response(r, horizon, precision).a.tolist() \
                == want
        with pytest.raises(ConditioningError,
                           match="pivot ratio 1.000e-66 at index 0 is below"
                           if q == 10 else "exceeds double precision"):
            recover_from_response(r, horizon)


@st.composite
def _exact_family_data(draw):
    """(horizon, exact response, exact moments) of a family on the grid
    of 1/8 (dyadic: short mantissas), 1/3 or 1/10, one entry of each
    perturbed where drawn."""
    horizon = draw(st.integers(1, 9))
    den = draw(st.sampled_from([8, 3, 10]))
    grid = st.integers(-2 * den, 2 * den).map(lambda k: Fraction(k, den))
    coeffs = JacobiCoefficients.from_arrays(
        [1] + [Fraction(draw(st.integers(den // 4 + 1, 3 * den)), den)
               for _ in range(horizon - 1)],
        [draw(grid) for _ in range(horizon)])
    r = response_vector(coeffs, 2 * horizon - 1, PrecisionMode.RATIONAL)
    s = response_to_moments(r, PrecisionMode.RATIONAL).as_array().copy()
    r = r.as_array().copy()
    for data in (r, s):
        if draw(st.booleans()):
            data[draw(st.integers(0, data.size - 1))] += (
                draw(grid) / 2 ** draw(st.integers(0, 12)))
    return horizon, r, s


def _long_mpf(values):
    """Exact values as EXTENDED mpf of 300 bits, more than the context
    keeps, so that reading them rounds nothing the rows see."""
    return np.array([_EXTENDED.make_mpf(libmp.from_rational(
        x.numerator, x.denominator, 300, libmp.round_nearest))
        for x in values], dtype=object)


def _outcome(call, *args):
    """The exact fields of a recovery or Wheeler run, or its error."""
    try:
        got = call(*args)
    except (JacobiBCError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, tuple):
        return [[getattr(v, "_mpf_", v) for v in part] for part in got]
    return got.a.tobytes(), got.b.tobytes(), repr(got.residual), got.path


@pytest.mark.parametrize("precision", [PrecisionMode.EXTENDED,
                                       PrecisionMode.RATIONAL],
                         ids=lambda p: p.value)
@settings(max_examples=40)
@given(family=_exact_family_data(), shift=st.integers(0, 1),
       scale=st.integers(0, 80))
def test_rows_on_a_callers_ints_equal_the_rows_on_the_lifted_data(
        precision, family, shift, scale):
    # the rows take the _Ints of their caller, on any scale: a wider
    # exponent in EXTENDED (the rounded sums of the moment route), a
    # larger common denominator in RATIONAL
    horizon, r, s = family
    nu = (r if shift else s) if precision is PrecisionMode.RATIONAL \
        else _long_mpf(r if shift else s)
    ints = _int_form(lift(nu, precision))
    if precision is PrecisionMode.RATIONAL:
        scaled = _Ints([x * (scale + 1) for x in ints.re], None,
                       ints.den * (scale + 1), 0)
    else:
        scaled = _Ints([x << scale for x in ints.re], None, 1,
                       ints.exp - scale)
    want = _outcome(modified_chebyshev, nu, horizon, shift, precision)
    assert _outcome(modified_chebyshev, ints, horizon, shift,
                    precision) == want
    assert _outcome(modified_chebyshev, scaled, horizon, shift,
                    precision) == want


@pytest.mark.parametrize("precision", list(PrecisionMode),
                         ids=lambda p: p.value)
@settings(max_examples=40)
@given(family=_exact_family_data())
def test_moment_recovery_equals_the_row_dot_route(precision, family):
    # recovery on s read once, converted on its ints, gives the bits and
    # errors of the route that lifted s for each run and converted it by
    # each transform row's dot
    horizon, _, s = family
    data = _long_mpf(s) if precision is PrecisionMode.EXTENDED else s
    got = _outcome(recover_from_moments, data, horizon, precision)
    with mock.patch.object(inverse, "_int_form", lambda values: values), \
            mock.patch.object(inverse, "_response_data", dot_conversion):
        want = _outcome(recover_from_moments, data, horizon, precision)
    assert got == want
    # the response run reads the rounded sums as it read the row dots
    lifted = lift(data, precision)
    assert _outcome(modified_chebyshev, _response_data(
        _int_form(lifted), precision), horizon, 1, precision) == _outcome(
        modified_chebyshev, dot_conversion(lifted, precision), horizon, 1,
        precision)


def _factor_and_extract(matrix, precision):
    """Reference recovery off matrix = L diag(d) L^T (C_T or S_T): a_k is
    sqrt(d_k / d_{k-1}), and the subdiagonal of L holds the partial sums
    b_1 + ... + b_k."""
    low, piv = pd_factor(lift(matrix, precision))
    a = np.sqrt((piv[1:] / piv[:-1]).astype(float))
    b = np.diff(np.diagonal(low, -1), prepend=0).astype(float)
    return a.tolist(), b.tolist()


def _exact_data(size):
    """Exact response and moments of a rational family, with C_T and S_T."""
    rng = np.random.default_rng(size)
    co = JacobiCoefficients.from_arrays(
        [1] + [Fraction(int(k), 8) for k in rng.integers(4, 17, size - 1)],
        [Fraction(int(k), 8) for k in rng.integers(-8, 9, size)])
    r = response_vector(co, 2 * size - 1, PrecisionMode.RATIONAL).as_array()
    s = response_to_moments(r, PrecisionMode.RATIONAL).as_array()
    c_top = connecting_from_response(r, size, PrecisionMode.RATIONAL).matrix
    return r, s, c_top, build_hankel(s, size, PrecisionMode.RATIONAL).matrix


class TestMatrixOracle:
    """The pivots of the recurrence are the LDL^T pivots of C_T (shift 1)
    and S_T (shift 0), and it recovers what factoring those blocks does."""

    @pytest.mark.parametrize("size", [1, 2, 7, 16])
    def test_rational_pivots_are_ldl_pivots(self, size):
        r, s, c_top, hankel = _exact_data(size)
        for data, shift, matrix in ((r, 1, c_top), (s, 0, hankel)):
            piv, _, _ = modified_chebyshev(data, size, shift,
                                           PrecisionMode.RATIONAL)
            _, ldl = pd_factor(lift(matrix, PrecisionMode.RATIONAL))
            assert all(type(x) is Fraction for x in piv)
            assert list(piv) == list(ldl)

    # both routes lose double digits fast on these families (the a_k reach
    # 2), so the double comparison stays where they are accurate
    @pytest.mark.parametrize("precision, size, tol", [
        (PrecisionMode.DOUBLE, 8, 1e-10),
        (PrecisionMode.EXTENDED, 16, 1e-12),
        (PrecisionMode.RATIONAL, 16, 0.0),
    ])
    def test_agrees_with_factor_and_extract(self, precision, size, tol):
        r, s, c_top, hankel = _exact_data(size)
        for recover, data, matrix in ((recover_from_response, r, c_top),
                                      (recover_from_moments, s, hankel)):
            rec = recover(data, size, precision)
            a_ref, b_ref = _factor_and_extract(matrix, precision)
            assert np.max(np.abs(rec.a - a_ref)) <= tol   # 0: bit-identical
            assert np.max(np.abs(rec.b - b_ref)) <= tol

    def test_rejects_exactly_what_validation_rejects(self):
        rng = np.random.default_rng(11)
        rejected = 0
        for _ in range(300):
            size = int(rng.integers(2, 9))
            r = response_vector(random_coefficients(rng, size),
                                2 * size - 1).as_array()
            r = r + (rng.normal(0, 10 ** rng.uniform(-3, 0), r.size)
                     * np.max(np.abs(r)))
            try:
                recover_from_response(r, size)
                raised = False
            except NotAResponseVectorError:
                raised = True
            assert raised is not validate_response(r, size).accepted
            rejected += raised
        assert 50 < rejected < 250     # both verdicts are exercised
