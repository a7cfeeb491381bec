"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, directly from the criteria.  Where a
criterion compares matrices or kernel values whose entries grow with the
horizon (the response of bounded-coefficient systems reaches ~1e13 by
T = 16), agreement is measured relative to the magnitude being compared;
and the T = 15 inverse round-trip runs the extended-precision pipeline,
since the conditioning of the data map exceeds what float64 input data
can represent (see the double-precision round-trip test in test_inverse
for the float64 envelope).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from jacobi_bc import (
    JacobiCoefficients,
    PrecisionMode,
    build_hankel,
    chebyshev_transform,
    circle_bound_connecting,
    connecting_from_hankel,
    connecting_from_response,
    connecting_from_spectrum,
    connecting_eig_sequences,
    control_operator,
    deficiency_partial_sums,
    eval_chebyshev,
    gram_from_control,
    hankel_min_eigs,
    hermite_biehler,
    kernel_finite,
    krein_solve,
    moments_to_response,
    recover_from_moments,
    recover_from_response,
    response_to_moments,
    response_vector,
    scalar_product,
    spectral_data,
    validate_response,
)
from jacobi_bc.spectral import eval_p_all

from conftest import random_coefficients, semicircle_moments
from test_moments import chebyshev_coefficient_oracle

FREE = JacobiCoefficients.free()
GEO = JacobiCoefficients.geometric(2)


@pytest.fixture(scope="module")
def inverse_instances():
    rng = np.random.default_rng(1234)
    return [random_coefficients(rng, 15) for _ in range(50)]


def test_criterion_1_free_jacobi_identity():
    start = time.monotonic()
    r = response_vector(FREE, 127)
    worst = 0.0
    for size in range(1, 65):
        conn = connecting_from_response(r, size)
        worst = max(worst, float(np.max(np.abs(conn.matrix - np.eye(size)))))
    assert worst < 1e-12
    beta, gamma = connecting_eig_sequences(r, 64)
    assert np.max(np.abs(beta - 1.0)) < 1e-12
    assert np.max(np.abs(gamma - 1.0)) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: free-coefficient connecting matrix is the "
          f"identity for T=1..64 (max dev {worst:.1e}), beta=gamma=1 "
          f"[{elapsed:.2f}s < 5s]")


def test_criterion_2_four_way_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        size = int(rng.integers(1, 17))
        co = random_coefficients(rng, size)
        r = response_vector(co, 2 * size - 1)
        mats = [
            connecting_from_response(r, size).matrix,
            connecting_from_spectrum(spectral_data(co, size), size).matrix,
            gram_from_control(co, size).matrix,
            connecting_from_hankel(
                build_hankel(response_to_moments(r).as_array(), size)).matrix,
        ]
        scale = max(1.0, max(np.max(np.abs(m)) for m in mats))
        diff = max(np.max(np.abs(x - y))
                   for i, x in enumerate(mats) for y in mats[i + 1:])
        worst = max(worst, diff / scale)
    assert worst < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: dynamic/spectral/Gram/Hankel constructions "
          f"agree on 50 random instances (worst rel diff {worst:.1e} < 1e-9) "
          f"[{elapsed:.2f}s < 30s]")


def test_criterion_3_inverse_round_trip(inverse_instances):
    start = time.monotonic()
    size = 15
    worst_err = worst_gap = 0.0
    for co in inverse_instances:
        a_true = np.array(co.a_head(size)[1:], dtype=float)
        b_true = np.array(co.b_head(size - 1), dtype=float)
        r = response_vector(co, 2 * size - 1, PrecisionMode.EXTENDED)
        rec = recover_from_response(r, size, PrecisionMode.EXTENDED)
        worst_err = max(worst_err,
                        float(np.max(np.abs(rec.a - a_true))),
                        float(np.max(np.abs(rec.b - b_true))))
        s = response_to_moments(r, PrecisionMode.EXTENDED)
        rec_m = recover_from_moments(s, size, PrecisionMode.EXTENDED)
        worst_gap = max(worst_gap,
                        float(np.max(np.abs(rec_m.a - rec.a))),
                        float(np.max(np.abs(rec_m.b - rec.b))))
    assert worst_err < 1e-6
    assert worst_gap < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: 50 inverse round-trips at T=15 "
          f"(worst coefficient error {worst_err:.1e} < 1e-6, path gap "
          f"{worst_gap:.1e} < 1e-8) [{elapsed:.2f}s < 30s]")


def test_criterion_4_response_characterization(inverse_instances):
    size = 15
    for co in inverse_instances:
        verdict = validate_response(response_vector(co, 2 * size - 1), size)
        assert verdict.accepted
    rejected = validate_response([1, 2, 0], 2)
    assert not rejected.accepted
    assert abs(rejected.min_eigenvalue - (-1.0)) < 1e-12
    print("\nACCEPTANCE 4 PASS: all 50 genuine responses accepted; "
          f"(1,2,0) rejected with min eigenvalue {rejected.min_eigenvalue:.15f}")


def test_criterion_5_kernel_krein_consistency():
    rng = np.random.default_rng(7)
    worst_kernel = worst_reprod = worst_state = 0.0
    for size in (2, 4, 8, 16, 32):
        co = random_coefficients(rng, size)
        precision = (PrecisionMode.DOUBLE if size <= 8
                     else PrecisionMode.EXTENDED)
        conn = gram_from_control(co, size, precision)
        for _ in range(4):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            sol = krein_solve(conn, z, precision)
            direct = kernel_finite(co, z, lam, size)
            via_krein = sol.kernel_value(lam)
            worst_kernel = max(worst_kernel,
                               abs(direct - via_krein) / max(1.0, abs(direct)))
            # reproducing property on monomials: [J_z, F] = F(z), deg F < T
            lam_t = chebyshev_transform(size).matrix
            for power in range(size):
                f = np.zeros(size, dtype=complex)
                for i in range(size - 1, -1, -1):
                    acc = (1.0 if i == power else 0.0) - sum(
                        complex(lam_t[jj, i]) * f[jj]
                        for jj in range(i + 1, size))
                    f[i] = acc
                value = scalar_product(sol.values, f, conn)
                worst_reprod = max(
                    worst_reprod,
                    abs(value - z ** power) / max(1.0, abs(z) ** power))
            w_mat = control_operator(co, size, precision).matrix
            state = w_mat @ sol.values
            state = np.array([complex(v) for v in state])
            target_p = np.conj(np.asarray(eval_p_all(co, size, z)))
            worst_state = max(
                worst_state,
                float(np.max(np.abs(state - target_p)))
                / max(1.0, float(np.max(np.abs(target_p)))))
    assert worst_kernel < 1e-9
    assert worst_reprod < 1e-9
    assert worst_state < 1e-9
    print(f"\nACCEPTANCE 5 PASS: Krein vs polynomial kernel {worst_kernel:.1e}, "
          f"reproducing property {worst_reprod:.1e}, special state "
          f"{worst_state:.1e} (all < 1e-9, T up to 32, 20 (z, lambda) draws)")


def test_criterion_6_chebyshev_transform_exactness():
    size = 30
    mat = chebyshev_transform(size).matrix
    oracle = chebyshev_coefficient_oracle(size)
    for i in range(size):
        assert list(mat[i]) == oracle[i]

    rng = np.random.default_rng(11)
    s = [Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 40)))
         for _ in range(12)]
    r = moments_to_response(s, PrecisionMode.RATIONAL)
    back = response_to_moments(r, PrecisionMode.RATIONAL)
    assert [Fraction(v) for v in back] == s

    for n in range(1, 31):
        assert eval_chebyshev(2 * n, 0) == 0
        assert eval_chebyshev(2 * n - 1, 0) == (-1) ** (n - 1)
    print("\nACCEPTANCE 6 PASS: transform rows match the integer coefficient "
          "recurrence for T<=30, rational conversion round-trips exactly, "
          "values at 0 have the exact parity pattern")


def test_criterion_7_determinacy_sequences():
    start = time.monotonic()
    lam = hankel_min_eigs(semicircle_moments(23), 12)
    assert all(lam[i + 1] < lam[i] for i in range(1, 11))

    rng = np.random.default_rng(3)
    for _ in range(10):
        size = int(rng.integers(2, 13))
        r = response_vector(random_coefficients(rng, size), 2 * size - 1)
        beta = connecting_eig_sequences(r, size, PrecisionMode.EXTENDED)[0]
        assert np.all(np.diff(beta) <= 1e-12)

    p_sums, q_sums = deficiency_partial_sums(GEO, 60)
    p_tail = (p_sums[-1] - p_sums[-6]) / p_sums[-1]
    q_tail = (q_sums[-1] - q_sums[-6]) / q_sums[-1]
    assert p_tail < 1e-10 and q_tail < 1e-10

    r_geo = response_vector(GEO, 31, PrecisionMode.RATIONAL)
    beta_geo = connecting_eig_sequences(r_geo.as_array(), 16,
                                        PrecisionMode.EXTENDED)[0]
    bound = float(circle_bound_connecting(GEO, 60))
    assert abs(beta_geo[-1] - beta_geo[-6]) < 1e-3  # stabilized
    assert beta_geo[-1] >= bound - 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 PASS: semicircle lambda_N strictly decreasing "
          f"(N=2..12, double); beta_T non-increasing on 10 random instances; "
          f"geometric deficiency tails {max(p_tail, q_tail):.1e} < 1e-10 by "
          f"n=60; lim beta {beta_geo[-1]:.6f} >= bound {bound:.6f} - 1e-6 "
          f"[{elapsed:.2f}s < 60s]")


def test_criterion_8_hermite_biehler():
    rng = np.random.default_rng(13)
    for size in (1, 2, 4, 8, 16):
        E = hermite_biehler(FREE, size)
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), rng.uniform(1e-9, 5.0))
            assert abs(E(z)) > abs(E(np.conj(z)))
    E1 = hermite_biehler(FREE, 1)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        closed = np.sqrt(np.pi) * (1 - 1j * z)
        worst = max(worst, abs(E1(z) - closed) / max(1.0, abs(closed)))
    assert worst < 1e-14
    print(f"\nACCEPTANCE 8 PASS: strict upper-half-plane inequality at 100 "
          f"samples for T in (1,2,4,8,16); T=1 matches the closed form to "
          f"{worst:.1e} < 1e-14")
