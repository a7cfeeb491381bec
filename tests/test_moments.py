import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp

from jacobi_bc import (
    ConditioningWarning,
    InsufficientDataError,
    JacobiCoefficients,
    PrecisionMode,
    build_hankel,
    chebyshev_transform,
    eval_chebyshev,
    hankel_positivity,
    moments_to_response,
    quadrature,
    response_to_moments,
    response_vector,
    spectral_data,
)

from jacobi_bc import moments
from jacobi_bc._multiprec import _EXTENDED, _number_kind, lift

from conftest import (dot_conversion, dot_substitution, exact_fields,
                      random_coefficients, semicircle_moments)

DOUBLE = PrecisionMode.DOUBLE
EXTENDED, RATIONAL = PrecisionMode.EXTENDED, PrecisionMode.RATIONAL


@st.composite
def _wide_mpf(draw):
    """An EXTENDED mpf of up to 300 mantissa bits (more than the context
    keeps) and an exponent anywhere in +-1100: a moment list of them
    spans up to 2^2500."""
    man = draw(st.integers(-(1 << 300), 1 << 300))
    return _EXTENDED.make_mpf(libmp.from_man_exp(man, draw(
        st.integers(-1100, 1100))))


@st.composite
def _wide_moments(draw, max_size=30):
    """Object moments of EXTENDED mpf, and mpc among them where drawn."""
    size = draw(st.integers(1, max_size))
    mpc = draw(st.sets(st.integers(0, size - 1), max_size=size))
    return np.array([_EXTENDED.make_mpc((draw(_wide_mpf())._mpf_,
                                         draw(_wide_mpf())._mpf_))
                     if k in mpc else draw(_wide_mpf())
                     for k in range(size)], dtype=object)


def _row_sum(row, values, precision):
    """sum_j row_j values_j of exact ints and lifted values: ``@`` in
    RATIONAL, and in EXTENDED the exact sum of the mpf values (of each
    part of the mpc values) in Fractions, rounded once: an mpc where a
    term of nonzero coefficient is one."""
    if precision is PrecisionMode.RATIONAL:
        return row @ values
    terms = [(int(c), getattr(v, "_mpc_", None) or (v._mpf_, libmp.fzero))
             for c, v in zip(row, values) if c]
    re, im = [libmp.from_rational(exact.numerator, exact.denominator,
                                  _EXTENDED.prec, libmp.round_nearest)
              for exact in (sum((c * Fraction(*libmp.to_rational(parts[k]))
                                 for c, parts in terms), Fraction(0))
                            for k in (0, 1))]
    if any(hasattr(v, "_mpc_") for c, v in zip(row, values) if c):
        return _EXTENDED.make_mpc((re, im))
    return _EXTENDED.make_mpf(re)


def _exact_inverse(values, precision):
    """transform^-1 values by the full substitution in exact Fractions,
    part by part: the Fractions themselves in RATIONAL, and in EXTENDED
    each part rounded once, an mpc where a value of its parity up to it
    is one."""
    lam = chebyshev_transform(values.size).matrix
    if precision is RATIONAL:
        parts = [list(values)]
    else:
        fields = [getattr(v, "_mpc_", None) or (v._mpf_, libmp.fzero)
                  for v in values]
        parts = [[Fraction(*libmp.to_rational(f[k])) for f in fields]
                 for k in (0, 1)]
    for part in parts:
        for i in range(len(part)):
            part[i] -= sum(c * x for c, x in zip(lam[i, :i], part))
    if precision is RATIONAL:
        return np.array(parts[0], dtype=object)
    re, im = [[libmp.from_rational(x.numerator, x.denominator,
                                   _EXTENDED.prec, libmp.round_nearest)
               for x in part] for part in parts]
    held = [hasattr(v, "_mpc_") for v in values]
    return np.array([_EXTENDED.make_mpc((re[i], im[i]))
                     if any(held[i % 2:i + 1:2]) else _EXTENDED.make_mpf(re[i])
                     for i in range(len(re))], dtype=object)


def chebyshev_coefficient_oracle(count):
    """Monomial coefficients of T_1..T_count by the integer recurrence
    on coefficient vectors (independent of the binomial formula)."""
    rows = [[0] * count for _ in range(count + 1)]  # rows 0..count = T_0..T_count
    rows[1][0] = 1
    for t in range(1, count):
        shifted = [0] + rows[t][:count - 1]
        rows[t + 1] = [s - p for s, p in zip(shifted, rows[t - 1])]
    return rows[1:]


def _bits(arr):
    """The exact value of every entry: float64 bytes, or each object's
    type and mpf fields or numerator and denominator."""
    if arr.dtype != object:
        return arr.dtype.str, arr.tobytes()
    return [(type(v), getattr(v, "_mpf_", None) or (v.numerator, v.denominator))
            for v in arr]


class TestHankel:
    def test_size(self):
        assert build_hankel(semicircle_moments(7), 4).size == 4

    def test_semicircle_two(self):
        assert np.array_equal(build_hankel([1, 0, 1], 2).matrix,
                              [[1, 0], [0, 1]])

    def test_b1_two(self):
        assert np.array_equal(build_hankel([1, 1, 2], 2).matrix,
                              [[1, 1], [1, 2]])

    def test_trivial(self):
        assert np.array_equal(build_hankel([4.0], 1).matrix, [[4.0]])

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            build_hankel([1, 0], 2)

    def test_anti_diagonals_constant(self, rng):
        s = rng.standard_normal(9)
        mat = build_hankel(s, 5).matrix
        for i in range(5):
            for j in range(5):
                assert mat[i, j] == s[i + j]


class TestChebyshevTransform:
    def test_size(self):
        assert chebyshev_transform(5).size == 5

    def test_order_three(self):
        assert np.array_equal(chebyshev_transform(3).matrix.astype(int),
                              [[1, 0, 0], [0, 1, 0], [-1, 0, 1]])

    def test_row_four(self):
        assert list(chebyshev_transform(4).matrix[3]) == [0, -2, 0, 1]

    def test_row_five(self):
        assert list(chebyshev_transform(5).matrix[4]) == [1, 0, -3, 0, 1]

    def test_unit_diagonal(self):
        mat = chebyshev_transform(12).matrix
        assert all(mat[i, i] == 1 for i in range(12))

    def test_rows_match_recurrence_oracle_exactly(self):
        size = 30
        mat = chebyshev_transform(size).matrix
        oracle = chebyshev_coefficient_oracle(size)
        for i in range(size):
            assert list(mat[i]) == oracle[i]

    def test_entries_match_the_binomial_formula(self):
        size = 40
        mat = chebyshev_transform(size).matrix
        for i in range(size):
            for j in range(size):
                half, odd = divmod(i + j, 2)
                want = (0 if j > i or odd
                        else math.comb(half, j) * (-1) ** (half + j))
                assert type(mat[i, j]) is int and mat[i, j] == want

    def test_rows_evaluate_to_polynomials(self, rng):
        mat = chebyshev_transform(8).matrix.astype(float)
        z = rng.uniform(-2, 2)
        powers = z ** np.arange(8)
        for k in range(1, 9):
            assert abs(mat[k - 1] @ powers - eval_chebyshev(k, z)) < 1e-10


class TestConversions:
    def test_examples(self):
        assert np.array_equal(response_to_moments([1, 0, 0]).as_array(), [1, 0, 1])
        assert np.array_equal(response_to_moments([1, 1, 1]).as_array(), [1, 1, 2])
        assert np.array_equal(response_to_moments([1.0]).as_array(), [1.0])
        assert np.array_equal(moments_to_response([1, 0, 1]).as_array(), [1, 0, 0])
        assert np.array_equal(moments_to_response([1, 1, 2]).as_array(), [1, 1, 1])

    @settings(max_examples=25)
    @given(st.lists(st.fractions(min_value=-5, max_value=5,
                                 max_denominator=64),
                    min_size=12, max_size=12))
    def test_rational_round_trip_exact(self, s):
        r = moments_to_response(s, PrecisionMode.RATIONAL)
        back = response_to_moments(r, PrecisionMode.RATIONAL)
        assert [Fraction(v) for v in back] == [Fraction(v) for v in s]

    @pytest.mark.parametrize("precision", [PrecisionMode.RATIONAL,
                                           PrecisionMode.EXTENDED])
    def test_moments_to_response_matches_the_full_product(self, precision):
        # only the nonzero terms of each transform row are summed; every
        # skipped term is an exact zero, so r_i is the full row's sum:
        # lam @ s in RATIONAL, and in EXTENDED its exact value rounded
        # once
        size = 41
        r = response_vector(random_coefficients(np.random.default_rng(3), size),
                            size, PrecisionMode.RATIONAL)
        s = response_to_moments(r, precision).as_array()
        lam = chebyshev_transform(size).matrix.astype(object)
        want = [_row_sum(row, s, precision) for row in lam]
        got = moments_to_response(s, precision).as_array()
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
        assert [str(v) for v in got] == [str(v) for v in want]

    @pytest.mark.parametrize("precision, complex_", [
        (RATIONAL, False), (EXTENDED, False), (EXTENDED, True)],
        ids=["rational", "extended", "extended-complex"])
    def test_response_to_moments_matches_the_full_substitution(
            self, precision, complex_):
        # the full back-substitution in exact Fractions: RATIONAL gives
        # it, and EXTENDED each part of it rounded once; with mpc at r_5,
        # r_8, r_11, ... s_6 stays real, as r_0, r_2, r_4 and r_6 are
        size = 41
        r = response_vector(random_coefficients(np.random.default_rng(3), size),
                            size, PrecisionMode.RATIONAL)
        r = lift(r.as_array(), precision)
        if complex_:
            r[5::3] = [x * _EXTENDED.mpc(1, 1 / (k + 2))
                       for k, x in enumerate(r[5::3])]
        want = _exact_inverse(r, precision)
        got = response_to_moments(r, precision).as_array()
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
        assert [str(v) for v in got] == [str(v) for v in want]

    @pytest.mark.parametrize("precision", list(PrecisionMode),
                             ids=lambda p: p.value)
    def test_conversions_equal_the_transform_rows(self, rng, precision):
        # the rows generated one at a time give the bits of the same-parity
        # terms of transform @ s and of its back-substitution
        for size in range(1, 81):
            values = rng.standard_normal(size) * 10.0 ** rng.integers(
                -8, 9, size)
            s = lift(values, precision)
            lam = chebyshev_transform(size).matrix.astype(s.dtype)
            want = s.copy()
            for i in range(size):
                want[i] = lam[i, i % 2:i + 1:2] @ s[i % 2:i + 1:2]
            got = moments_to_response(s, precision).as_array()
            assert _bits(got) == _bits(want), size
            for i in range(size):
                want[i] = want[i] - lam[i, i % 2:i:2] @ want[i % 2:i:2]
            assert _bits(response_to_moments(got, precision).as_array()) \
                == _bits(want), size

    def test_double_round_trip(self, rng):
        s = rng.standard_normal(10)
        back = response_to_moments(moments_to_response(s)).as_array()
        assert np.max(np.abs(back - s)) < 1e-9

    def test_consistency_with_spectral_quadrature(self, rng):
        # moments recovered from the response match the quadrature
        # moments of the finite spectral measure for k <= 2N - 1
        co = random_coefficients(rng, 7)
        r = response_vector(co, 2 * 7 - 1)
        s = response_to_moments(r).as_array()
        data = spectral_data(co, 7)
        for k in range(2 * 7 - 1):
            val = quadrature(data, lambda x: x ** k)
            assert abs(s[k] - val) < 1e-9 * max(1.0, abs(val))


class TestIntegerConversion:
    # the object modes map each way by one exact recurrence on the
    # integer form: each r_i has the bits, and the type, that the row's
    # dot gave, and each s_i is the exact inverse rounded once

    @settings(max_examples=80)
    @given(s=_wide_moments())
    # an mpc's imaginary part of more bits than the precision is rounded
    # once, as every part of the exact inverse is
    @example(s=np.array([_EXTENDED.mpf(0)] * 3 + [_EXTENDED.make_mpc((
        libmp.fzero, libmp.from_man_exp((1 << 169) + 1, 0)))], dtype=object))
    def test_extended_sums_equal_the_row_dots(self, s):
        got = moments_to_response(s, EXTENDED).as_array()
        assert exact_fields(got) == exact_fields(dot_conversion(s, EXTENDED))
        assert exact_fields(response_to_moments(s, EXTENDED).as_array()) \
            == exact_fields(_exact_inverse(s, EXTENDED))

    def test_extended_inverse_is_rounded_once_where_the_rows_were_not(self):
        # at 201 entries the substitution by row dots loses digits; the
        # recurrence gives the exact inverse of the lifted data, each
        # entry rounded once
        r = lift(response_vector(random_coefficients(
            np.random.default_rng(3), 201), 201, RATIONAL).as_array(),
            EXTENDED)
        want = exact_fields(_exact_inverse(r, EXTENDED))
        assert exact_fields(response_to_moments(r, EXTENDED).as_array()) \
            == want
        assert exact_fields(dot_substitution(r, EXTENDED)) != want

    @settings(max_examples=60)
    @given(st.lists(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                              st.fractions(max_denominator=10 ** 12)),
                    min_size=1, max_size=30))
    def test_rational_sums_equal_the_row_dots(self, s):
        got = moments_to_response(s, RATIONAL).as_array()
        assert exact_fields(got) == exact_fields(dot_conversion(s, RATIONAL))
        assert exact_fields(response_to_moments(s, RATIONAL).as_array()) \
            == exact_fields(dot_substitution(s, RATIONAL))

    @settings(max_examples=40)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30))
    def test_double_substitution_keeps_the_row_dots(self, s):
        assert exact_fields(response_to_moments(s).as_array()) \
            == exact_fields(dot_substitution(s, DOUBLE))

    @pytest.mark.parametrize("precision, infinite", [
        (EXTENDED, False), (RATIONAL, False), (DOUBLE, False),
        (EXTENDED, True)], ids=["extended", "rational", "double",
                                "extended-inf"])
    def test_the_inverse_takes_one_emit_or_the_row_loop(self, monkeypatch,
                                                         precision, infinite):
        # the object modes round the recurrence's ints once, by one
        # _emitted call in the mode's kind and no row's dot; float data
        # and an inf take the row loop, a dot a row
        kinds, dots = [], []
        emitted, dot = moments._emitted, moments.dot
        monkeypatch.setattr(moments, "_emitted", lambda vec, kind, **kw:
                            kinds.append(kind) or emitted(vec, kind, **kw))
        monkeypatch.setattr(moments, "dot", lambda u, v:
                            dots.append(len(v)) or dot(u, v))
        r = lift(response_vector(random_coefficients(
            np.random.default_rng(3), 21), 21, RATIONAL).as_array(),
            precision)
        if infinite:
            r[6] = _EXTENDED.inf
        response_to_moments(r, precision)
        if precision is DOUBLE or infinite:
            assert (kinds, dots) == ([], [i // 2 for i in range(21)])
        else:
            assert (kinds, dots) == ([_number_kind(precision)], [])

    @settings(max_examples=40)
    @given(s=_wide_moments(max_size=12), data=st.data())
    def test_inf_and_nan_keep_the_row_dots(self, s, data):
        # the form cannot hold them: a row holding one gives u @ v
        at = data.draw(st.integers(0, s.size - 1))
        s[at] = _EXTENDED.mpf(data.draw(st.sampled_from(["inf", "-inf",
                                                         "nan"])))
        got = moments_to_response(s, EXTENDED).as_array()
        assert exact_fields(got) == exact_fields(dot_conversion(s, EXTENDED))
        assert exact_fields(response_to_moments(s, EXTENDED).as_array()) \
            == exact_fields(dot_substitution(s, EXTENDED))
        lam = chebyshev_transform(s.size).matrix
        for i in range(at, s.size, 2):
            assert exact_fields([got[i]]) == exact_fields(
                [lam[i, i % 2:i + 1:2] @ s[i % 2:i + 1:2]])


class TestPositivity:
    def test_semicircle_positive(self):
        report = hankel_positivity(semicircle_moments(5), 3)
        assert report.solvable and report.first_failure is None
        assert np.all(report.min_eigenvalues > 0)

    def test_not_a_moment_sequence(self):
        report = hankel_positivity([1, 0, -1], 2)
        assert not report.solvable
        assert report.first_failure == 2

    def test_trivial(self):
        report = hankel_positivity([1.0], 1)
        assert report.min_eigenvalues[0] == 1.0

    def test_genuine_coefficients_always_positive(self, rng):
        co = random_coefficients(rng, 8)
        s = response_to_moments(response_vector(co, 15)).as_array()
        assert hankel_positivity(s, 8).solvable

    def test_conditioning_warning(self):
        s = semicircle_moments(47)
        with pytest.warns(ConditioningWarning):
            hankel_positivity(s, 24)

    def test_a_failed_pivot_keeps_the_blocks_before_it(self):
        # Catalan numbers above 2^53 round in float64, and pivot 31 (N =
        # 32) is the first of the recurrence to fail; the blocks before it
        # stay on the recurrence instead of per-block eigen-solves
        s = semicircle_moments(65)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            long, short = hankel_positivity(s, 33), hankel_positivity(s, 28)
        assert short.solvable
        assert long.min_eigenvalues[:28].tobytes() == \
            short.min_eigenvalues.tobytes()
        assert long.first_failure is not None and long.first_failure >= 32
