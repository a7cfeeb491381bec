"""EXTENDED values carry their own 50 digits, whatever mpmath.mp says.

Integer data below 10^50 make 50-digit arithmetic exact, so a result
computed at 50 digits equals the exact integer reference, while one
computed at mpmath's default 15 digits does not.
"""

import mpmath
import numpy as np
import pytest

from jacobi_bc import (
    JacobiCoefficients,
    PrecisionMode,
    apply_response,
    classify,
    control_operator,
    gram_from_control,
    hankel_min_eigs,
    krein_solve,
    recover_from_moments,
    recover_from_response,
    response_to_moments,
    response_vector,
)

from conftest import random_coefficients

EXTENDED = PrecisionMode.EXTENDED
RATIONAL = PrecisionMode.RATIONAL
GEO3 = JacobiCoefficients.geometric(3)


def test_apply_response_computes_at_50_digits():
    horizon = 16
    control = list(range(1, horizon + 1))
    exact_r = response_vector(GEO3, horizon, RATIONAL).as_array()
    reference = np.convolve(exact_r, control)[:horizon]
    assert max(abs(v) for v in reference) > 2 ** 53
    got = apply_response(response_vector(GEO3, horizon, EXTENDED), control)
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
    return report.to_json_dict(), rec.a.tolist(), rec.b.tolist(), rec.residual


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
