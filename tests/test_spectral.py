import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from jacobi_bc import (
    BoundaryControl,
    ComplexDataError,
    ConditioningError,
    JacobiBCError,
    JacobiCoefficients,
    PrecisionMode,
    classify,
    eval_chebyshev,
    extension_parameter,
    fourier_image,
    hermite_biehler,
    kernel_finite,
    quadrature,
    response_vector,
    solution_via_spectrum,
    solve_finite,
    spectral_data,
)
from jacobi_bc.spectral import eval_p_all, eval_q_all

from conftest import matrix_moment, random_coefficients

FREE = JacobiCoefficients.free()
B1 = JacobiCoefficients.from_rules(lambda n: 1, lambda n: 1 if n == 1 else 0)


class TestPolynomials:
    def test_p_examples(self):
        z = 1.37
        assert eval_p_all(FREE, 2, z)[-1] == z
        assert abs(eval_p_all(FREE, 3, z)[-1] - (z * z - 1)) < 1e-14
        assert eval_p_all(B1, 2, z)[-1] == z - 1

    def test_q_examples(self):
        z = -0.42
        assert eval_q_all(FREE, 1, z)[-1] == 0
        assert eval_q_all(FREE, 2, z)[-1] == 1
        assert eval_q_all(FREE, 3, z)[-1] == z

    def test_chebyshev_examples(self):
        for z in (0.3, -1.8, 2.4 + 0.7j):
            assert abs(eval_chebyshev(3, z) - (z ** 2 - 1)) < 1e-12
            assert abs(eval_chebyshev(4, z) - (z ** 3 - 2 * z)) < 1e-12
            assert abs(eval_chebyshev(5, z) - (z ** 4 - 3 * z ** 2 + 1)) < 1e-11
        assert eval_chebyshev(4, 2.0) == 4.0

    def test_chebyshev_at_zero_parity_exact(self):
        # integer arithmetic: even-index values vanish, odd alternate
        for n in range(1, 40):
            assert eval_chebyshev(2 * n, 0) == 0
            assert eval_chebyshev(2 * n - 1, 0) == (-1) ** (n - 1)

    def test_chebyshev_recurrence_self_consistency(self, rng):
        lam = rng.uniform(-3, 3, 8)
        for t in range(1, 101):
            lhs = eval_chebyshev(t + 1, lam) + eval_chebyshev(t - 1, lam)
            rhs = lam * eval_chebyshev(t, lam)
            assert np.max(np.abs(lhs - rhs)) < 1e-6 * max(1.0, np.max(np.abs(rhs)))

    def test_vectorized_matches_scalar(self, rng):
        co = random_coefficients(rng, 6)
        zs = rng.uniform(-2, 2, 5)
        stacked = eval_p_all(co, 6, zs)
        for i, z in enumerate(zs):
            single = eval_p_all(co, 6, float(z))
            assert np.max(np.abs(stacked[:, i] - single)) < 1e-12


class TestSpectralData:
    def test_one_by_one(self):
        data = spectral_data(JacobiCoefficients.from_arrays([1.0], [2.5]), 1)
        assert data.pairs == [(2.5, 1.0)]

    def test_free_two(self):
        data = spectral_data(FREE, 2)
        assert np.allclose(data.lambdas, [-1.0, 1.0])
        assert np.allclose(data.weights, [0.5, 0.5])

    def test_free_three_roots(self):
        data = spectral_data(FREE, 3)
        assert np.allclose(data.lambdas, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)

    def test_weights_are_reciprocal_norms(self, rng):
        # w_k = 1 / sum_i p_i(lambda_k)^2: the two weight definitions agree
        co = random_coefficients(rng, 7)
        data = spectral_data(co, 7)
        for lam, w in data.pairs:
            rho = sum(float(v) ** 2 for v in eval_p_all(co, 7, lam))
            assert abs(w * rho - 1.0) < 1e-10

    def test_weights_sum_to_one(self, rng):
        data = spectral_data(random_coefficients(rng, 9), 9)
        assert abs(np.sum(data.weights) - 1.0) < 1e-12

    def test_orthonormality(self, rng):
        co = random_coefficients(rng, 8)
        data = spectral_data(co, 8)
        sampled = np.asarray(eval_p_all(co, 8, data.lambdas))
        gram = (sampled * data.weights) @ sampled.T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    @pytest.mark.parametrize("size", [5, 40, 256])
    def test_matches_scipys_tridiagonal_eigensolver(self, rng, size):
        # a and b near the free values: wider ranges localize the
        # eigenvectors at 256 sites until a squared first component
        # underflows to zero
        co = random_coefficients(rng, size, (0.9, 1.1), (-0.1, 0.1))
        data = spectral_data(co, size)
        lam, vec = scipy.linalg.eigh_tridiagonal(
            np.array([float(x) for x in co.b_head(size)]),
            np.array([float(x) for x in co.a_head(size)[1:]]))
        assert data.lambdas.tobytes() == lam.tobytes()
        assert np.max(np.abs(data.weights - vec[0] ** 2)) <= 1e-15

    def test_underflowed_weight_is_a_conditioning_error(self):
        # a in [0.5, 2], b in [-1, 1] localize eigenvectors at 256 sites
        # until a squared first component underflows to zero
        co = random_coefficients(np.random.default_rng(81), 256)
        with pytest.raises(ConditioningError,
                           match=r"^the weight of eigenvalue \d+ of 256, "
                                 r"lambda = .*, squares to 0"):
            spectral_data(co, 256)

    def test_eigensolver_failure_is_a_library_error(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(JacobiBCError, match="did not converge"):
            spectral_data(FREE, 3)


class TestQuadrature:
    def test_normalization(self, rng):
        data = spectral_data(random_coefficients(rng, 5), 5)
        assert abs(quadrature(data, lambda x: 1.0) - 1.0) < 1e-12

    def test_free_second_moment(self):
        data = spectral_data(FREE, 2)
        assert abs(quadrature(data, lambda x: x ** 2) - 1.0) < 1e-12

    def test_orthonormal_pairs(self, rng):
        co = random_coefficients(rng, 6)
        data = spectral_data(co, 6)
        p = eval_p_all(co, 6, data.lambdas)    # row n - 1: p_n at the nodes
        gram = (p * data.weights) @ p.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_gauss_exactness_against_matrix_moments(self, rng):
        # the 6-node measure reproduces the moments of arbitrarily deep
        # blocks of the same family for m <= 2N - 1; the oracle block is
        # deeper than the quadrature
        co = random_coefficients(rng, 12)
        data = spectral_data(co, 6)
        for m in range(2 * 6):
            oracle = matrix_moment(co, m)
            val = quadrature(data, lambda x: x ** m)
            assert abs(val - oracle) < 1e-9 * max(1.0, abs(oracle))


class TestSpectralSolution:
    def test_matches_time_stepping(self, rng):
        co = random_coefficients(rng, 8)
        ctrl = rng.standard_normal(8)
        direct = solve_finite(co, 8, ctrl)
        viaspec = solution_via_spectrum(co, 8, ctrl)
        assert np.max(np.abs(direct.values - viaspec.values)) < 1e-10

    def test_matches_time_stepping_deeper(self, rng):
        for size in (12, 16):
            co = random_coefficients(rng, size)
            ctrl = rng.standard_normal(size)
            direct = solve_finite(co, size, ctrl)
            viaspec = solution_via_spectrum(co, size, ctrl)
            scale = max(1.0, np.max(np.abs(direct.values)))
            assert np.max(np.abs(direct.values - viaspec.values)) < 1e-9 * scale

    def test_zero_control(self):
        field = solution_via_spectrum(FREE, 4, [0.0, 0.0, 0.0, 0.0])
        assert not np.any(field.values)

    def test_impulse_recovers_response(self, rng):
        # r_{t-1} equals the t-th propagation polynomial integrated
        # against the finite spectral measure
        co = random_coefficients(rng, 6)
        data = spectral_data(co, 6)
        r = response_vector(co, 6)
        for t in range(1, 7):
            val = quadrature(data, lambda x: eval_chebyshev(t, x))
            assert abs(val - r[t - 1]) < 1e-10


class TestFourierImage:
    def test_last_slot(self):
        z = 0.9 + 0.2j
        assert fourier_image([0, 0, 1], z) == 1  # T_1

    def test_second_slot(self):
        z = 0.9 + 0.2j
        assert fourier_image([0, 1, 0], z) == z  # T_2

    def test_at_zero(self, rng):
        f = rng.standard_normal(3)
        assert abs(fourier_image(f, 0.0) - (f[2] - f[0])) < 1e-14

    def test_accepts_boundary_control(self):
        # the last control slot pairs with T_1, so this image is constant 1
        assert fourier_image(BoundaryControl((0.0, 1.0)), 1.5) == 1.0


class TestExtensionParameter:
    def test_geometric_converges_to_zero(self):
        est = extension_parameter(JacobiCoefficients.geometric(2), 40)
        assert est.value == 0.0
        assert est.converged and est.summable
        assert est.last_delta < 1e-10

    def test_free_flagged(self):
        est = extension_parameter(FREE, 40)
        assert est.value is None
        assert not est.summable
        assert "no numerical limit" in est.message

    def test_small_depth_direct_formula(self):
        co = JacobiCoefficients.from_arrays([1.0, 1.0], [0.5, 0.0])
        est = extension_parameter(co, 2)
        assert abs(est.candidate - 2.0) < 1e-14  # 1 / b_1

    def test_skipped_indices_reported(self):
        est = extension_parameter(JacobiCoefficients.geometric(2), 10)
        assert set(est.skipped) == {2, 4, 6, 8, 10}

    def test_one_ratio_does_not_converge(self):
        # p_1(0) = 1 always gives a ratio; p_2(0) = 0 here gives no second
        est = extension_parameter(
            JacobiCoefficients.from_arrays([1, 2, 3], [0, 0, 0]), 2)
        assert est.skipped == (2,)
        assert est.last_delta == float("inf") and not est.converged

    def test_moving_ratios_are_reported(self):
        # a_n = 1.5^n is limit circle (the sums converge), but b_n of
        # period 3 keeps -q_n(0)/p_n(0) jumping at depth 62
        co = JacobiCoefficients.from_rules(lambda n: 1.5 ** n,
                                           lambda n: 0.3 * (n % 3 - 1))
        est = extension_parameter(co, 62)
        assert est.summable and not est.converged and est.value is None
        assert est.message == "no numerical limit: ratios still move by 1.233e+01"


def test_p_names_a_diagonal_entry_beyond_float64():
    co = JacobiCoefficients.from_arrays([1, 1, 1], [10 ** 400, 0, 0])
    with pytest.raises(ConditioningError, match="coefficient b_1 is beyond"):
        eval_p_all(co, 3, 0.5)


@pytest.mark.parametrize("big", [10 ** 400, Fraction(10 ** 400, 3),
                                 mpmath.mpf("1e400"), mpmath.mpf("inf")],
                         ids=["int", "Fraction", "mpf", "mpf infinity"])
def test_p_names_a_coefficient_beyond_float64_in_every_spelling(big):
    # an mpf b_2 made the recurrence compute in mpf and return values
    # beyond float64; every coefficient now enters by the one entry rule
    co = JacobiCoefficients.from_arrays([1, 0.5, 1, 1], [0, big, 0, 0])
    with pytest.raises(ConditioningError, match=(
            "^coefficient b_2 is beyond the float64 range")):
        eval_p_all(co, 4, 0.5)


@pytest.mark.parametrize("bad", [float("inf"), np.float64("-inf"),
                                 np.float32("nan"), mpmath.mpf("nan")],
                         ids=["inf", "numpy -inf", "float32 nan", "mpf nan"])
def test_the_polynomial_routes_name_an_inf_or_nan_coefficient(bad):
    # float64 holds a_1 only as inf or NaN: kernel_finite gave nan+nanj in
    # every mode, eval_p_all [1, 0, -inf, nan], hermite_biehler nan with a
    # RuntimeWarning, and DOUBLE classify a verdict with gamma = inf;
    # classify names it from the sweep of its gamma table, which reads it
    # before the recurrences do
    co = JacobiCoefficients.from_arrays([1, bad, 1, 1, 1], [0.5] * 5)
    routes = [(lambda: eval_p_all(co, 4, 0.5), "p_n"),
              (lambda: eval_q_all(co, 4, 0.5), "p_n"),
              (lambda: hermite_biehler(co, 4)(0.5), "p_n"),
              (lambda: classify(co, 4), "the sweep cannot use$")]
    routes += [(lambda mode=mode: kernel_finite(co, 1j, 0.3, 4,
                                                precision=mode), "p_n")
               for mode in PrecisionMode]
    for route, reader in routes:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match=(
                    f"^coefficient a_1 is (-?inf|nan), which {reader}")):
                route()


@pytest.mark.parametrize("a_rule, message", [
    (lambda n: 10 ** (50 * n), "coefficient a_7 is beyond the float64 range"),
    (lambda n: 1e50 ** n, "the coefficient rule overflows at a_7"),
], ids=["beyond float64", "rule overflow"])
def test_the_recurrences_read_their_memo_lazily(a_rule, message):
    # the family's memo of entered coefficients fills as far as a
    # recurrence reads: a_7 is refused, phi_1..phi_7 are yielded, and
    # every recurrence that reaches a_7 later refuses it again
    co = JacobiCoefficients.from_rules(a_rule, lambda n: 0)
    fresh = JacobiCoefficients.from_rules(a_rule, lambda n: 0)
    z = np.array([0.5, 1j])
    for kind, route in (("p", eval_p_all), ("q", eval_q_all)):
        with pytest.raises(ConditioningError, match=f"^{message}"):
            route(co, 8, z)
        warm = route(co, 7, z)
        assert warm.tobytes() == route(fresh, 7, z).tobytes(), kind
    with pytest.raises(ConditioningError, match=f"^{message}"):
        eval_p_all(co, 8, 0.25)
    assert sorted(co._entered) == list(range(7))


def test_threads_share_a_familys_memo():
    # the memo's writes are idempotent: six threads reading one fresh
    # family at once get the bits of a family read alone, and the memo
    # holds each entry once
    def family():
        return JacobiCoefficients.from_rules(lambda n: 1 + 1 / (n + 1),
                                             lambda n: 0.25)

    z = np.array([0.5, 1j])
    want, co = eval_p_all(family(), 60, z), family()
    results, start = [None] * 6, threading.Barrier(6)

    def read(k):
        start.wait(timeout=60)
        results[k] = eval_p_all(co, 60, z)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [r.tobytes() for r in results] == [want.tobytes()] * 6
    assert sorted(co._entered) == list(range(60))


@pytest.mark.parametrize("a, b, error, match", [
    ([1, 0.5 + 0j, 1], [0, 0, 0], ComplexDataError, "a_1 = "),
    ([1, 0.5, 1], [0, 1j, 0], ComplexDataError, "b_2 = 1j"),
    ([1, 10 ** 400, 1], [0, 0, 0], ConditioningError, "exceeds double"),
    ([1, 1, 1], [0, 0, -10 ** 400], ConditioningError, "exceeds double"),
])
def test_spectral_data_refuses_what_the_block_refuses(a, b, error, match):
    # a complex entry raised TypeError, and an int beyond float64
    # OverflowError, from float(x)
    with pytest.raises(error, match=match):
        spectral_data(JacobiCoefficients.from_arrays(a, b), 3)
