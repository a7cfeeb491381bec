"""The exact output bits of the forward sweeps and Wheeler's rows, pinned.

The object modes' integer loops: the oracle tests elsewhere check that
the EXTENDED rows, sweeps, tables and solves are no worse than their mpf
counterparts; these pin what they return, field by field: the sign,
mantissa, exponent and bit count of every mpf (both parts of every mpc),
the numerator and denominator of every Fraction and the bytes of every
float64 table.  The DOUBLE kernels (``_multiprec._float_sweep`` and
``_multiprec._array_rows``) are pinned the same way, on a family of the
benchmark's kind at its horizons, on a complex control whose field
crosses several 64-site widths, and on a moment row whose pivot fails,
which runs the rows again checked.  A change that rounds one value of
these loops differently changes a digest here.

The object-mode digests were recorded from the code as it stood before
the loops shared one integer form, the DOUBLE ones from the code before
the float kernels dropped their per-step bookkeeping, and the RATIONAL
gamma of a family in thirds and fifths and the recovered roots of
geometric(10^20) from the code before they left for float64 by one
rounding, and the RATIONAL Krein kernels, whose Fraction cells of W_T
are rounded once to EXTENDED (on the benchmark's kind of family and on
one in thirds and fifths), from the code before W_T reached the solve
as integer lines, and the rational and mixed mpf/mpc moment transforms,
EXTENDED moment recovery and the RATIONAL recovery of a family on the 1/8
grid from the code before the moment route read its data once into the
integer form, and the whole ``classify`` reports (in every mode, on a
finite family whose gamma table is wider than tall, and on the DOUBLE
families whose rows of Q and whose field overflow) from the code before
the eigenvalue tables were solved together, and the EXTENDED moment
substitution of a response holding mpc or an mpf inf from the code
before it ran on the sweep of the solves; a change that means to alter
these bits records them anew and says why.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from jacobi_bc import (JacobiCoefficients, PrecisionMode, build_hankel,
                       classify, connecting_from_response, control_operator,
                       kernel_finite, moments_to_response,
                       recover_from_moments, recover_from_response,
                       response_to_moments, response_vector, solve_finite,
                       solve_semi_infinite)
from jacobi_bc.dynamics import _gram_upper
from jacobi_bc._multiprec import (_EXTENDED, _wheeler_rows, coefficient_eigs,
                                  gram_solve, leading_eig_extremes, lift,
                                  modified_chebyshev, mp_pd_solve, pd_factor)

from conftest import dot_substitution, exact_fields

DOUBLE = PrecisionMode.DOUBLE
EXTENDED = PrecisionMode.EXTENDED
RATIONAL = PrecisionMode.RATIONAL
GEO3 = JacobiCoefficients.geometric(3)
GEO22 = JacobiCoefficients.geometric(2.2)
CARLEMAN_09 = JacobiCoefficients.from_rules(lambda n: (n + 1) ** 0.9,
                                            lambda n: 0)
CARLEMAN_1 = JacobiCoefficients.from_rules(lambda n: n + 1, lambda n: 0)
# a_8..a_11 are roots of beta_k beyond float64
GEO1E20 = JacobiCoefficients.geometric(10 ** 20)
# a family of the kind the Krein kernel is benchmarked on
RANDOM = JacobiCoefficients.from_arrays(
    [1.0] + np.random.default_rng(26).uniform(0.5, 2.0, 48).tolist(),
    np.random.default_rng(27).uniform(-1.0, 1.0, 48).tolist())
Z, LAM = 0.3 + 1j, -0.4 + 0.2j


def _decaying(horizon, seed):
    """a_n = 1 - d_n, b_n = v_n d_n with d_n = u_n / (n+1)^2, u_n in
    [0, 0.5) and v_n in [-1, 1): the benchmark's recovery families, 2T
    entries long, so the response to 2T - 1 sees no wall."""
    rng = np.random.default_rng(seed)
    n = np.arange(1, 2 * horizon + 1)
    d = rng.uniform(0.0, 0.5, n.size) / (n + 1.0) ** 2
    return JacobiCoefficients.from_arrays(
        [1.0] + (1.0 - d[:-1]).tolist(),
        (rng.uniform(-1.0, 1.0, n.size) * d).tolist())


DECAYING = _decaying(1024, 32)


def _digest(value) -> str:
    return hashlib.sha256(repr(exact_fields(value)).encode()).hexdigest()


def _data(precision, shift):
    r = response_vector(GEO3, 79, precision).as_array()
    return r if shift else response_to_moments(r, precision).as_array()


def _chebyshev(precision, shift):
    nu = _data(precision, shift)
    return nu, modified_chebyshev(nu, 40, shift, precision)


def _wide_span_moments():
    # Carleman(1) moments with each zero odd moment replaced by a value
    # near 1e-300: rows span about 2^1000 below their largest entry
    # built by the row dots' substitution, which made it before the
    # inverse transform rounded each moment once
    s = dot_substitution(response_vector(CARLEMAN_1, 79, EXTENDED).as_array(),
                         EXTENDED)
    s[1::2] = [_EXTENDED.mpf(k + 1) / 7 * _EXTENDED.mpf("1e-300")
               for k in range(s[1::2].size)]
    try:
        return s, modified_chebyshev(s, 40, 0, EXTENDED)
    except np.linalg.LinAlgError as exc:
        return s, str(exc)


def _complex_control():
    control = [complex(k + 1, (-1) ** k * k) / 7 for k in range(16)]
    return solve_semi_infinite(JacobiCoefficients.geometric(2), control, 16,
                               EXTENDED).values


def _eigen_sequences(coeffs):
    lam, beta, gamma = coefficient_eigs(coeffs.a_head(24), coeffs.b_head(24),
                                        24, EXTENDED)
    r = response_vector(coeffs, 47, EXTENDED).as_array()
    s = response_to_moments(r, EXTENDED).as_array()
    return (lam, beta,
            leading_eig_extremes(build_hankel(s, 24, EXTENDED).matrix, s, 0,
                                 EXTENDED),
            leading_eig_extremes(connecting_from_response(r, 24,
                                                          EXTENDED).matrix,
                                 r, 1, EXTENDED),
            gamma)


# five atoms: the gamma table of N = 8 has 5 rows and 8 columns
FIVE_ATOMS = JacobiCoefficients.from_arrays(
    [1, Fraction(3, 4), Fraction(5, 4), 1, Fraction(1, 2)],
    [0, Fraction(1, 4), Fraction(-1, 2), 0, Fraction(1, 8)])
# DOUBLE overflows the rows of Q (lambda_3.. = 0.0) and, for geometric(2)
# at N = 64, the field of gamma (inf from T = 46)
TINY_A = JacobiCoefficients.from_arrays([1, 1e-200, 1e-200, 1, 1], [0] * 5)


def _report(coeffs, n_max, precision):
    # every field of the classify report: sequences, bounds, verdict, notes
    r = classify(coeffs, n_max, precision)
    return (r.lambda_seq, r.beta_seq, r.gamma_seq, r.hankel_bound,
            r.connecting_bound, r.deficiency_p, r.deficiency_q,
            r.verdict.value, r.precision.value, r.notes)


def _thirds_and_fifths():
    # denominators that are not powers of two: each cell of the sweep
    # divides its Fraction out before it leaves for float64 or EXTENDED
    a = [1] + [Fraction(2 * n + 1, 3) if n % 2 else Fraction(3 * n + 2, 5)
               for n in range(1, 24)]
    b = [Fraction((-1) ** n * (n + 1), 5) if n % 2 else Fraction(n - 4, 3)
         for n in range(1, 25)]
    return a, b


def _thirds_and_fifths_gamma():
    return coefficient_eigs(*_thirds_and_fifths(), 24, RATIONAL)[2]


def _recovered_roots(precision):
    r = response_vector(GEO1E20, 23, precision).as_array()
    result = recover_from_response(r, 12, precision)
    return result.a, result.b, result.residual


def _moment_recovery():
    s = response_to_moments(response_vector(RANDOM, 47, RATIONAL), RATIONAL)
    result = recover_from_moments(s, 24, EXTENDED)
    return result.a, result.b, result.residual


def _eighths_recovery():
    # the exact response of a family on the 1/8 grid, as the benchmark's
    # rational recovery draws it
    eighths = [Fraction(round(8 * x), 8) for x in
               np.random.default_rng(28).uniform(0.5, 2.0, 48)]
    coeffs = JacobiCoefficients.from_arrays(
        [Fraction(1)] + eighths,
        [Fraction(round(8 * x), 8) for x in
         np.random.default_rng(29).uniform(-1.0, 1.0, 48)])
    result = recover_from_response(response_vector(coeffs, 47, RATIONAL), 24,
                                   RATIONAL)
    return result.a, result.b, result.residual


def _complex_moments():
    # mpc among the mpf from s_5 on: the rows before stay real
    s = np.array(_data(EXTENDED, 0))
    s[5::3] = [x * _EXTENDED.mpc(1, 1 / (k + 2))
               for k, x in enumerate(s[5::3])]
    return s, moments_to_response(s, EXTENDED).as_array()


def _complex_response():
    # mpc among the mpf from r_5 on, every third entry: each parity chain
    # of the substitution turns complex at its own first mpc
    r = response_vector(RANDOM, 47, EXTENDED).as_array().copy()
    r[5::3] = [x * _EXTENDED.mpc(1, 1 / (k + 2))
               for k, x in enumerate(r[5::3])]
    return r, response_to_moments(r, EXTENDED).as_array()


def _infinite_response():
    # an mpf inf at r_6: the even chain propagates it from there, the odd
    # chain stays finite
    r = response_vector(RANDOM, 47, EXTENDED).as_array().copy()
    r[6] = _EXTENDED.inf
    return r, response_to_moments(r, EXTENDED).as_array()


def _krein(precision, coeffs=RANDOM):
    rhs = lift([complex(k + 1, -k) / 5 for k in range(24)], EXTENDED)
    return (kernel_finite(coeffs, Z, LAM, 24, method="krein",
                          precision=precision),
            gram_solve(_gram_upper(coeffs, 24, precision), rhs))


def _pd_solve():
    r = response_vector(RANDOM, 47, EXTENDED)
    mat = lift(connecting_from_response(r, 24, EXTENDED).matrix, EXTENDED)
    rhs = [complex(1, k) / (k + 3) for k in range(24)]
    return pd_factor(mat), mp_pd_solve(mat, rhs)


def _double_complex_control():
    rng = np.random.default_rng(33)
    control = (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)).tolist()
    return (control_operator(DECAYING, 300).matrix,
            solve_finite(DECAYING, 250, control, 300).values)


def _double_moment_rows():
    # the float rows of moments fail at a pivot: the unchecked pass, the
    # checked run again from the start, and the lists it leaves
    s = response_to_moments(response_vector(DECAYING, 199)).as_array()
    pivots, alpha, beta = [], [], [0]
    try:
        _wheeler_rows(lift(s, DOUBLE), 100, 0, pivots, alpha, beta)
        error = None
    except np.linalg.LinAlgError as exc:
        error = str(exc)
    return pivots, alpha, beta, error


CASES = {
    "response-vector-double": lambda: response_vector(
        DECAYING, 2047).as_array(),
    "control-operator-and-finite-field-double": _double_complex_control,
    "chebyshev-double-response": lambda: modified_chebyshev(
        response_vector(DECAYING, 2047).as_array(), 1024, 1, DOUBLE),
    "chebyshev-double-moments": _double_moment_rows,
    "chebyshev-extended-response": lambda: _chebyshev(EXTENDED, 1),
    "chebyshev-extended-moments": lambda: _chebyshev(EXTENDED, 0),
    "chebyshev-rational-response": lambda: _chebyshev(RATIONAL, 1),
    "chebyshev-rational-moments": lambda: _chebyshev(RATIONAL, 0),
    "chebyshev-wide-span-moments": _wide_span_moments,
    "control-operator-extended": lambda: control_operator(
        GEO3, 40, EXTENDED).matrix,
    "control-operator-rational": lambda: control_operator(
        GEO3, 24, RATIONAL).matrix,
    "semi-infinite-complex-control": _complex_control,
    "moments-to-response-extended": lambda: moments_to_response(
        _data(EXTENDED, 0), EXTENDED).as_array(),
    "moments-to-response-rational": lambda: moments_to_response(
        _data(RATIONAL, 0), RATIONAL).as_array(),
    "moments-to-response-extended-complex": _complex_moments,
    "response-to-moments-extended-complex": _complex_response,
    "response-to-moments-extended-inf": _infinite_response,
    "recover-from-moments-extended": _moment_recovery,
    "recover-from-response-rational-eighths": _eighths_recovery,
    "eigen-sequences-geometric2.2": lambda: _eigen_sequences(GEO22),
    "eigen-sequences-carleman0.9": lambda: _eigen_sequences(CARLEMAN_09),
    "gram-max-eigs-rational-thirds-fifths": _thirds_and_fifths_gamma,
    **{f"classify-{name}-{mode.value}": (
        lambda coeffs=coeffs, mode=mode: _report(coeffs, 24, mode))
       for name, coeffs in (("geometric2.2", GEO22),
                            ("carleman0.9", CARLEMAN_09))
       for mode in PrecisionMode},
    **{f"classify-five-atoms-{mode.value}": (
        lambda mode=mode: _report(FIVE_ATOMS, 8, mode))
       for mode in PrecisionMode},
    "classify-overflowed-rows-double": lambda: _report(TINY_A, 5, DOUBLE),
    "classify-overflowed-rows-extended": lambda: _report(TINY_A, 5,
                                                         EXTENDED),
    "classify-overflowed-field-double": lambda: _report(
        JacobiCoefficients.geometric(2), 64, DOUBLE),
    "recover-roots-extended": lambda: _recovered_roots(EXTENDED),
    "recover-roots-rational": lambda: _recovered_roots(RATIONAL),
    "krein-kernel-extended": lambda: _krein(EXTENDED),
    "krein-kernel-rational": lambda: _krein(RATIONAL),
    "krein-kernel-rational-thirds-fifths": lambda: _krein(
        RATIONAL, JacobiCoefficients.from_arrays(*_thirds_and_fifths())),
    "pd-factor-and-solve-extended": _pd_solve,
}

PINNED = {
    'chebyshev-double-moments':
        'ec8c2c1c89c26ce915c70b150667bdab262ba33ec2fd98a3e8c0dcb05236bc69',
    'chebyshev-double-response':
        '4915777d6136b76169570f7b3cb25b9d49f0e298e893dc771f88abdbc3e159cf',
    'chebyshev-extended-moments':
        'a716556fa5c04c550b5df3db989f8d06516f8631a75f35a2949a231138fb9d77',
    'chebyshev-extended-response':
        '99382ca49a43e79beeb072294327a7c5ca48285bb54dd1899392dffc2caa1aa6',
    'chebyshev-rational-moments':
        '040d627edc2bc375df21ca96086ac7f6c4309f8d0a0fd0d3eedb95208a0bfb1c',
    'chebyshev-rational-response':
        'fc35306219080adc76f2e31b6ba4ccab845e944c43ccbc513e927b3edc5faf49',
    'chebyshev-wide-span-moments':
        'c2554fec86c6a0ca633b1dd845388e98d75e0474eeabc801ff67e4c38cdfa40b',
    'classify-carleman0.9-double':
        'dd111ef4503669770e76602c522dca3a643e57c1b8221fd7f3a0dcbbc9a1ab4e',
    'classify-carleman0.9-extended':
        '7492aaec9d8861d40658129ca583ae9e118c15e918a32f198001837d7d2dc485',
    'classify-carleman0.9-rational':
        'f6b1adba805dd35ffbf8fe59b0ae3bb466ee2712571b7d468ec76954a914048f',
    'classify-five-atoms-double':
        '4b152c22c913e6668acb1a0f5cc67bb1bfeed73e7b81b844f71fa72ee0fba612',
    'classify-five-atoms-extended':
        'a49ecd8637347b76163e90d1d2d9f6d3d286a759158b4bb65f4b9305f325982f',
    'classify-five-atoms-rational':
        '74e84d2805dd055785b137f1a8bf687ef471e66515ffb18d68bc6d4b2eb9c1b4',
    'classify-geometric2.2-double':
        '3ccd78012700d7dfacef2d1628a6a7fbe401a7db3080329b0fc4efc7b6eee2f5',
    'classify-geometric2.2-extended':
        'aaf8a2428d54b8f2387f157bbc1fe9b5a364c993f49268396785a4e32adc5f05',
    'classify-geometric2.2-rational':
        '8249735791e25d22ebe968c157ebc09884b846d589328e9defcf2d1fef0410ea',
    'classify-overflowed-field-double':
        'd8eb5d60a2e757a2bc6b79dfd2e62b52f664d63760d5148afdc2771eaf078caf',
    'classify-overflowed-rows-double':
        '8c54e4f64ff44226119c813c0ed0315f4cc003be9cc079df9b57f4cdfe105e41',
    'classify-overflowed-rows-extended':
        'af1e52cbfb31b8cf999fa9bf68a547cdedaab31d0aaab9748c0dbd15467d581b',
    'control-operator-and-finite-field-double':
        'eec1af15b71ac39d5940a4b8459109455f5e43d5acafd3c32605271679ad0f5b',
    'control-operator-extended':
        '36ba435d8a19843be874dc41330d8ca7902ffdc30d0b153efb7947c53f3cc95c',
    'control-operator-rational':
        'f4f4709e1b26439501cdea3d3544958d9e9a716fa36f949c91848039b387fc16',
    'eigen-sequences-carleman0.9':
        'f7f4ea879e39019d355f21a527e328126f3854c2432ae15daf29cbaa5a1109b2',
    'eigen-sequences-geometric2.2':
        'cfcd0e79ae74afda832043ce911fc01eb517042768593a3bbb985dbcfbd1771c',
    'gram-max-eigs-rational-thirds-fifths':
        '5caf8342615507a75efc5c7f1a18fd69e459f8f5642c7cd42399971a919dd3b3',
    'krein-kernel-extended':
        '40f86ec539be2fba2ff75d8ce8466fa857797f47c60d1163cf17ac974bc0065d',
    'krein-kernel-rational':
        '40f86ec539be2fba2ff75d8ce8466fa857797f47c60d1163cf17ac974bc0065d',
    'krein-kernel-rational-thirds-fifths':
        'd47d0e12f6d76041f5818bf554239b6ecf18d0d33daf89b926edd9d5bf5ca738',
    'moments-to-response-extended':
        '188445f8c90c71f676d49d652336636166b1e4203086946169394c419656f56b',
    'moments-to-response-extended-complex':
        'c99390b10a123124de47739047a4b784f0c3de2ca61304d778a966ddc4c31dfa',
    'moments-to-response-rational':
        'bcf3aa4a6daafd12a0420006297d9b85edaf445ac3fabbf2407214b772cb14fc',
    'pd-factor-and-solve-extended':
        'eee96c322129297151a1e34feebba88675922d425f9b84e85255cf4499dcc36b',
    'recover-roots-extended':
        'afac3e337e602ed65b229e540f2f5fb27382b24babcb241c65c2aeb562823510',
    'recover-roots-rational':
        'afac3e337e602ed65b229e540f2f5fb27382b24babcb241c65c2aeb562823510',
    'recover-from-moments-extended':
        '591c0fe2c636a086de786f5999e634b141f1c0e13e8b3a8b8bd0e3e1d4d3e8db',
    'recover-from-response-rational-eighths':
        '87b61272ab2e6230071afffac4704f330a301d5b153d6ceb6a7c694d5c099fdd',
    'response-to-moments-extended-complex':
        '27ca5b0977f42d60e4751c35d401ef914fc4d51e706f2f9250bf45e77be1b1d7',
    'response-to-moments-extended-inf':
        '21ce7b91f2dc61dc3394f1d13f7e2834212cf855a4a70b9620186a9d39561060',
    'response-vector-double':
        'bbdb8eb60c5588a5ff0c1abbbda34aabb67789397b008b2ed5e44b22bd4b2ab1',
    'semi-infinite-complex-control':
        '27f75d8ef2ca2b496746642f37d3fbbd92b1458f1af7ab4743deb609d3f5b712',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bits_are_pinned(name):
    assert _digest(CASES[name]()) == PINNED[name]
