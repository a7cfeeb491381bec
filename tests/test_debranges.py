import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import jacobi_bc
from jacobi_bc import (
    ConditioningError,
    JacobiCoefficients,
    KreinSolution,
    NotAMomentSequenceError,
    NotAResponseVectorError,
    NotLimitCircleError,
    PrecisionMode,
    build_hankel,
    chebyshev_transform,
    connecting_from_response,
    control_operator,
    eval_chebyshev,
    gram_from_control,
    hermite_biehler,
    kernel_finite,
    kernel_from_E,
    kernel_infinite,
    krein_solve,
    krein_solve_hankel,
    quadrature,
    response_to_moments,
    response_vector,
    scalar_product,
    spectral_data,
)
from jacobi_bc import debranges
from jacobi_bc._multiprec import _EXTENDED, dot
from jacobi_bc.spectral import chebyshev_all, eval_p_all

from conftest import random_coefficients

FREE = JacobiCoefficients.free()
EXTENDED = PrecisionMode.EXTENDED
B1 = JacobiCoefficients.from_rules(lambda n: 1, lambda n: 1 if n == 1 else 0)


def monomial_coefficients(power, size):
    """Control coefficients of lambda^power in the T_k basis: solve
    transform^T f = e_power exactly over the rationals."""
    lam = chebyshev_transform(size).matrix
    f = [Fraction(0)] * size
    for i in range(size - 1, -1, -1):
        acc = Fraction(1 if i == power else 0)
        acc -= sum(lam[j, i] * f[j] for j in range(i + 1, size))
        f[i] = acc  # diagonal is 1
    return np.array([complex(v) for v in f])


def _direct_kernel_80_digits(co, z, lam, size):
    """sum_{n<T} conj(p_n(z)) p_n(lam) by the three-term recurrence in
    80-digit mpmath, rounded to complex."""
    with mpmath.workdps(80):
        total = mpmath.mpc(0)
        p_z, p_l = [mpmath.mpc(0), mpmath.mpc(1)], [mpmath.mpc(0), mpmath.mpc(1)]
        for n in range(1, size + 1):
            total += mpmath.conj(p_z[-1]) * p_l[-1]
            a_n, a_prev = mpmath.mpf(co.a(n)), mpmath.mpf(co.a(n - 1))
            b_n = mpmath.mpf(co.b(n))
            for p, x in ((p_z, z), (p_l, lam)):
                p.append(((x - b_n) * p[-1] - a_prev * p[-2]) / a_n)
        return complex(total)


class TestKreinSolve:
    def test_free_solution_is_conjugate(self):
        z = 0.8 - 0.3j
        sol = krein_solve(gram_from_control(FREE, 2), z)
        assert np.max(np.abs(sol.values - [1, np.conj(z)])) < 1e-14
        assert sol.residual < 1e-10

    def test_trivial(self):
        sol = krein_solve(np.array([[1.0]]), 2.0)
        assert sol.values[0] == 1.0

    def test_b1_at_zero(self):
        sol = krein_solve(gram_from_control(B1, 2), 0.0)
        assert np.max(np.abs(sol.values - [2.0, -1.0])) < 1e-13

    def test_rejects_indefinite(self):
        conn = connecting_from_response([1, 2, 0], 2)
        with pytest.raises(NotAResponseVectorError):
            krein_solve(conn, 1.0)

    def test_requires_corner_top(self, rng):
        # the Krein equation is posed on C_T; the response route returns
        # it, so its block solves like the coefficient route on W_T
        size = 8
        co = random_coefficients(rng, size)
        conn = connecting_from_response(response_vector(co, 2 * size - 1),
                                        size)
        z, lam = 0.4 + 0.9j, -0.3
        got = krein_solve(conn, z).kernel_value(lam)
        want = kernel_finite(co, z, lam, size, method="krein")
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


class TestKreinHankel:
    def test_semicircle(self):
        z = 1.1 + 0.4j
        f = krein_solve_hankel(build_hankel([1, 0, 1], 2), z)
        assert np.max(np.abs(f - [1, np.conj(z)])) < 1e-13

    def test_transform_identity(self, rng):
        # f = transform^T j ties the two Krein equations together
        size = 7
        co = random_coefficients(rng, size)
        z = 0.4 + 1.2j
        r = response_vector(co, 2 * size - 1)
        s_vals = response_to_moments(r).as_array()
        j = krein_solve(connecting_from_response(r, size), z).values
        f = krein_solve_hankel(build_hankel(s_vals, size), z)
        lam = chebyshev_transform(size).matrix.astype(float)
        assert np.max(np.abs(f - lam.T @ j)) < 1e-9 * max(1.0, np.max(np.abs(f)))

    def test_trivial(self):
        assert krein_solve_hankel(np.array([[4.0]]), 0.5)[0] == 0.25

    def test_extended_is_accurate_to_float64_rounding(self, rng):
        # z^k is formed in the 50-digit arithmetic of the solve, so only
        # the final rounding to complex remains
        for size in (1, 2, 5, 9, 14, 20):
            co = random_coefficients(rng, size)
            s_vals = response_to_moments(
                response_vector(co, 2 * size - 1)).as_array()
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            got = krein_solve_hankel(build_hankel(s_vals, size), z,
                                     precision=EXTENDED).astype(complex)
            with mpmath.workdps(80):
                smat = mpmath.matrix([[s_vals[i + j] for j in range(size)]
                                      for i in range(size)])
                rhs = mpmath.matrix([mpmath.conj(mpmath.mpc(z) ** k)
                                     for k in range(size)])
                want = np.array([complex(x)
                                 for x in mpmath.lu_solve(smat, rhs)])
            assert np.max(np.abs(got - want)) <= 1.1e-16 * np.max(np.abs(want))


class TestKernelFinite:
    def test_free_two(self):
        z, lam = 0.3 + 0.7j, -0.9 + 0.1j
        val = kernel_finite(FREE, z, lam, 2)
        assert abs(val - (1 + np.conj(z) * lam)) < 1e-14

    def test_trivial_is_one(self):
        assert kernel_finite(FREE, 2.3, -0.4, 1) == 1.0

    def test_backends_agree(self, rng):
        for size in (2, 5, 12):
            co = random_coefficients(rng, size)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            direct = kernel_finite(co, z, lam, size)
            via_krein = kernel_finite(co, z, lam, size, method="krein")
            assert abs(direct - via_krein) < 1e-9 * max(1.0, abs(direct))

    def test_krein_on_w_matches_the_gram_route(self, rng):
        # the coefficient route solves on W_T; krein_solve on the Gram
        # block C_T = W_T^T W_T, factored and refined, is its oracle
        co = random_coefficients(rng, 40)
        eps = np.finfo(float).eps
        for size in range(2, 41):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            lam = rng.uniform(-2, 2)
            got = kernel_finite(co, z, lam, size, method="krein",
                                precision=EXTENDED)
            want = krein_solve(gram_from_control(co, size, EXTENDED), z,
                               EXTENDED).kernel_value(lam)
            assert abs(got - want) <= eps * abs(want)

    def test_extended_krein_is_accurate_to_float64_rounding(self, rng):
        # T_k(z) and T_k(lam) are evaluated in the 50-digit arithmetic of
        # the solve, so only the final rounding to complex remains
        for size in (1, 2, 9, 25, 40):
            co = random_coefficients(rng, size + 1)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            lam = rng.uniform(-2, 2)
            got = kernel_finite(co, z, lam, size, method="krein",
                                precision=EXTENDED)
            want = _direct_kernel_80_digits(co, z, lam, size)
            assert abs(got - want) <= 2.2e-16 * abs(want)

    @pytest.mark.parametrize("precision", [PrecisionMode.DOUBLE, EXTENDED])
    def test_block_route_is_the_krein_solve_of_the_block(self, rng,
                                                         precision):
        # a ConnectingMatrix or its array goes through krein_solve; the
        # coefficient sum of the same family is its oracle
        size = 5
        co = random_coefficients(rng, size)
        block = connecting_from_response(response_vector(co, 2 * size - 1),
                                         size)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        lam = rng.uniform(-2, 2)
        want = kernel_finite(co, z, lam, size)
        solved = krein_solve(block, z, precision).kernel_value(lam)
        for source in (block, block.matrix):
            got = kernel_finite(source, z, lam, precision=precision)
            assert got == solved
            assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("precision", [PrecisionMode.DOUBLE, EXTENDED])
    def test_kernel_value_of_an_array_is_the_scalar_calls(self, rng,
                                                          precision):
        size = 6
        co = random_coefficients(rng, size)
        sol = krein_solve(gram_from_control(co, size, precision), 0.3 + 0.8j,
                          precision)
        lams = np.array([-1.5, 0.0, 0.25, 1.75 - 0.5j])
        got = sol.kernel_value(lams)
        assert got.tolist() == [sol.kernel_value(lam) for lam in lams]

    def test_extended_kernel_value_rounds_its_sum_once(self):
        # at lam = 3, T_1..T_3 = 1, 3, 8; 3 j_2 needs 170 bits and rounds
        # up by 1, which j_1 cancels, so the exact sum is 8 - 1, where
        # rounded products and partial sums would give 8
        j_2 = _EXTENDED.mpc(2 ** 168 + 1)
        values = np.array([-(j_2 * 3), j_2, _EXTENDED.mpc(1)], dtype=object)
        sol = KreinSolution(values=values, z=0j, horizon=3, residual=0.0)
        assert int(values[0].real) == -(3 * (2 ** 168 + 1) + 1)
        assert sol.kernel_value(3.0) == 7

    @pytest.mark.parametrize("precision", [EXTENDED, PrecisionMode.RATIONAL])
    def test_a_real_lam_takes_real_chebyshev_values(self, rng, monkeypatch,
                                                    precision):
        # T_k of a real lam are mpf, with no complex product, and their
        # sum against the solution has the bits of the sum of their mpc
        co = random_coefficients(rng, 12)
        sol = krein_solve(gram_from_control(co, 12, precision), 0.3 + 0.8j,
                          precision)
        points = []
        monkeypatch.setattr(debranges, "chebyshev_all", lambda t, z:
                            points.append(type(z)) or chebyshev_all(t, z))
        for lam in (-1.75, 0.0, 3, np.float64(0.625),
                    _EXTENDED.mpf(-0.5)):
            want = complex(dot(sol.values, np.array(chebyshev_all(
                12, _EXTENDED.mpc(lam)))))
            assert sol.kernel_value(lam) == want
        assert set(points) == {type(_EXTENDED.mpf(0))}
        sol.kernel_value(0.5 + 0j)
        assert points[-1] is type(_EXTENDED.mpc(0))

    @pytest.mark.parametrize("size", [30, 40])
    def test_double_krein_refuses_an_ill_conditioned_w(self, size):
        # W_T has the diagonal 2^-k: DOUBLE refuses it, and EXTENDED
        # answers as far as its 50 digits allow (9e-9 relative at T = 40)
        co = JacobiCoefficients.from_arrays([1] + [0.5] * size, [0.0] * size)
        with pytest.raises(ConditioningError, match="stalled"):
            kernel_finite(co, 0.3 + 1j, 0.5, size, method="krein")
        direct = kernel_finite(co, 0.3 + 1j, 0.5, size)
        via_w = kernel_finite(co, 0.3 + 1j, 0.5, size, method="krein",
                              precision=EXTENDED)
        assert abs(via_w - direct) < 1e-6 * abs(direct)

    def test_double_krein_refuses_a_residual_the_gate_does_not_pass(self):
        # W_T of a_k = 0.65 at T = 16: every refined residual lies in
        # (3e-10, 7e-10), so the 1e-10 gate of ``_refined_solve`` refuses
        # what a 1e-8 gate would accept
        co = JacobiCoefficients.from_arrays([1] + [0.65] * 16, [0.0] * 16)
        with pytest.raises(ConditioningError, match="stalled") as info:
            kernel_finite(co, 0.3 + 1j, 0.5, 16, method="krein")
        residual = float(re.search(r"residual (\S+);", str(info.value))[1])
        assert 1e-10 < residual <= 1e-8

    def test_double_krein_needs_more_than_one_refinement_step(
            self, monkeypatch):
        # the first residuals of this W_T (T = 13) are 1.0e-9, 4.1e-10,
        # 3.3e-10 and 4.0e-10; the fourth refinement step reaches 6.4e-11
        rng = np.random.default_rng(3)
        co = random_coefficients(rng, 13)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        lam = rng.uniform(-2, 2)
        got = kernel_finite(co, z, lam, 13, method="krein")
        want = kernel_finite(co, z, lam, 13, method="krein",
                             precision=EXTENDED)
        assert abs(got - want) <= 1e-12 * abs(want)
        monkeypatch.setattr(jacobi_bc._multiprec, "_REFINE_STEPS", 1)
        with pytest.raises(ConditioningError, match="stalled"):
            kernel_finite(co, z, lam, 13, method="krein")

    @pytest.mark.parametrize("precision", list(PrecisionMode))
    def test_krein_never_forms_the_gram_block(self, rng, monkeypatch,
                                              precision):
        def refuse(*args, **kwargs):
            raise AssertionError("the Gram block was formed or factored")

        for module in (jacobi_bc, jacobi_bc.connecting, jacobi_bc.debranges,
                       jacobi_bc._multiprec):
            for name in ("gram_from_control", "pd_factor"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        co = random_coefficients(rng, 8)
        got = kernel_finite(co, 0.4 + 0.9j, -0.3, 8, method="krein",
                            precision=precision)
        direct = kernel_finite(co, 0.4 + 0.9j, -0.3, 8)
        assert abs(got - direct) < 1e-9 * max(1.0, abs(direct))

    def test_hermitian_symmetry(self, rng):
        co = random_coefficients(rng, 6)
        z, lam = 0.5 + 0.8j, -1.1 + 0.3j
        assert abs(np.conj(kernel_finite(co, z, lam, 6))
                   - kernel_finite(co, lam, z, 6)) < 1e-12

    def test_reproducing_property_by_quadrature(self, rng):
        # sum_k w_k conj(J_z(lambda_k)) F(lambda_k) = F(z) for deg F < T
        size = 6
        co = random_coefficients(rng, size)
        data = spectral_data(co, size)
        z = 0.7 + 0.2j
        for power in range(size):
            val = quadrature(
                data,
                lambda x: np.conj(kernel_finite(co, z, x, size)) * x ** power)
            assert abs(val - z ** power) < 1e-9 * max(1.0, abs(z) ** power)

    def test_special_state(self, rng):
        # the Krein solution drives the system to conj(p(z)) at t = T
        size = 9
        co = random_coefficients(rng, size)
        z = -0.6 + 0.9j
        sol = krein_solve(gram_from_control(co, size), z)
        state = control_operator(co, size).matrix @ sol.values
        target = np.conj(np.asarray(eval_p_all(co, size, z)))
        assert np.max(np.abs(state - target)) < 1e-9 * max(
            1.0, np.max(np.abs(target)))


class TestScalarProduct:
    def test_free_chebyshev_orthonormal(self):
        conn = gram_from_control(FREE, 4)
        for j in range(4):
            for k in range(4):
                f = np.eye(4)[j]
                g = np.eye(4)[k]
                val = scalar_product(f, g, conn)
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-14

    def test_positivity(self, rng):
        size = 5
        conn = gram_from_control(random_coefficients(rng, size), size)
        f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        assert scalar_product(f, f, conn).real > 0

    def test_reproduces_point_values(self, rng):
        size = 6
        co = random_coefficients(rng, size)
        conn = gram_from_control(co, size)
        z = 0.4 - 0.5j
        j = krein_solve(conn, z).values
        for power in range(size):
            f = monomial_coefficients(power, size)
            val = scalar_product(j, f, conn)
            assert abs(val - z ** power) < 1e-9 * max(1.0, abs(z) ** power)

    def test_matches_quadrature(self, rng):
        size = 5
        co = random_coefficients(rng, size)
        conn = gram_from_control(co, size)
        data = spectral_data(co, size)
        f = rng.standard_normal(size)
        g = rng.standard_normal(size)
        cheb = lambda x: np.asarray(chebyshev_all(size, x))
        direct = scalar_product(f, g, conn)
        integral = quadrature(
            data, lambda x: np.conj(cheb(x) @ f) * (cheb(x) @ g))
        assert abs(direct - integral) < 1e-9 * max(1.0, abs(direct))


class TestKernelInfinite:
    def test_geometric_origin(self):
        result = kernel_infinite(JacobiCoefficients.geometric(2), 0.0, 0.0)
        assert abs(result.value - 4 / 3) < 1e-10
        assert result.order < 60
        assert result.tail < 1e-12

    def test_free_raises(self):
        with pytest.raises(NotLimitCircleError):
            kernel_infinite(FREE, 0.0, 0.0, n_cap=2000)

    def test_single_term_lower_bound(self):
        result = kernel_infinite(FREE, 1j, 1j, tol=1e6)
        assert result.order == 1 and result.value == 1.0

    def test_diagonal_partial_sums_nondecreasing(self):
        geo = JacobiCoefficients.geometric(2)
        orders = [kernel_infinite(geo, 0.5j, 0.5j, tol=t).value.real
                  for t in (1e-2, 1e-6, 1e-12)]
        assert orders[0] <= orders[1] <= orders[2] + 1e-15


class TestHermiteBiehler:
    def test_trivial_closed_form(self, rng):
        E = hermite_biehler(FREE, 1)
        for _ in range(20):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            assert abs(E(z) - np.sqrt(np.pi) * (1 - 1j * z)) < 1e-14 * max(
                1.0, abs(z))
        assert abs(abs(E(1j)) - 2 * np.sqrt(np.pi)) < 1e-14
        assert abs(E(-1j)) < 1e-14

    def test_free_two_closed_form(self, rng):
        E = hermite_biehler(FREE, 2)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert abs(E(z) - np.sqrt(np.pi / 2) * (1 - 1j * z) ** 2) < 1e-13 * max(
                1.0, abs(z) ** 2)

    def test_upper_half_plane_inequality(self, rng):
        for size in (1, 2, 4, 8):
            co = random_coefficients(rng, size)
            E = hermite_biehler(co, size)
            for _ in range(50):
                z = complex(rng.uniform(-5, 5), rng.uniform(1e-3, 5))
                assert abs(E(z)) > abs(E(np.conj(z)))


class TestKernelFromE:
    def test_trivial_ratio_is_pi(self):
        E = hermite_biehler(FREE, 1)
        val = kernel_from_E(E, 1j, 0.0)
        assert abs(val - np.pi) < 1e-12

    def test_hermitian_symmetry(self, rng):
        E = hermite_biehler(random_coefficients(rng, 4), 4)
        z, xi = 0.5 + 0.8j, -0.7 + 0.25j
        assert abs(np.conj(kernel_from_E(E, z, xi))
                   - kernel_from_E(E, xi, z)) < 1e-10

    def test_diagonal_positive_upper_half_plane(self, rng):
        E = hermite_biehler(random_coefficients(rng, 5), 5)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
            val = kernel_from_E(E, z, z)
            assert val.real > 0 and abs(val.imag) < 1e-8 * val.real

    def test_removable_singularity_continuous(self, rng):
        E = hermite_biehler(random_coefficients(rng, 3), 3)
        z = 0.4 + 0.7j
        at_point = kernel_from_E(E, z, np.conj(z))
        nearby = kernel_from_E(E, z, np.conj(z) + 1e-6)
        assert abs(at_point - nearby) < 1e-4 * max(1.0, abs(at_point))

    def test_measured_normalization_is_constant(self, rng):
        # the constant between the two kernel routes is measured, not
        # asserted; it must at least be the same at every sample point
        co = random_coefficients(rng, 5)
        pts = [(complex(rng.uniform(-2, 2), rng.uniform(0.2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
               for _ in range(6)]
        E = hermite_biehler(co, 5)
        ratios = np.array([kernel_from_E(E, z, xi) / kernel_finite(co, z, xi, 5)
                           for z, xi in pts])
        spread = np.max(np.abs(ratios - ratios[0]))
        assert spread < 1e-8 * max(1.0, abs(ratios[0]))


@pytest.mark.parametrize("precision", [PrecisionMode.DOUBLE,
                                       PrecisionMode.EXTENDED])
def test_krein_solve_hankel_refuses_an_indefinite_block(precision):
    with pytest.raises(NotAMomentSequenceError):
        krein_solve_hankel([[1, 2], [2, 1]], 0.5j, precision)
