from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from jacobi_bc import (
    ConditioningError,
    JacobiCoefficients,
    NotAMomentSequenceError,
    NotAResponseVectorError,
    Orientation,
    PrecisionMode,
    connecting_from_response,
    control_operator,
    recover_from_moments,
    recover_from_response,
    response_to_moments,
    response_vector,
)

from jacobi_bc._multiprec import lift, pd_factor

from conftest import random_coefficients

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
        top = connecting_from_response(r, size).aligned(Orientation.CORNER_TOP)
        upper = scipy.linalg.cholesky(top.matrix, lower=False)
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


class TestFactorization:
    def test_exact_ldl_agrees_with_lapack(self, rng):
        co = random_coefficients(rng, 8)
        conn = connecting_from_response(response_vector(co, 15), 8).aligned(
            Orientation.CORNER_TOP).matrix
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
    assert calls == [1]  # the residual's; the cross-check reuses the factor
