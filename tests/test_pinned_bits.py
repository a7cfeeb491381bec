"""The exact output bits of the object modes' integer loops, pinned.

The oracle tests elsewhere check that the EXTENDED rows, sweeps, tables
and solves are no worse than their mpf counterparts; these pin what they
return, field by field: the sign, mantissa, exponent and bit count of
every mpf (both parts of every mpc), the numerator and denominator of
every Fraction and the bytes of every float64 table.  A change that
rounds one value of these loops differently changes a digest here.

The digests were recorded from the code as it stood before the loops
shared one integer form; a change that means to alter these bits
records them anew and says why.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from jacobi_bc import (JacobiCoefficients, PrecisionMode, build_hankel,
                       connecting_from_response, control_operator,
                       kernel_finite, moments_to_response, response_to_moments,
                       response_vector, solve_semi_infinite)
from jacobi_bc._multiprec import (_EXTENDED, gram_max_eigs, gram_solve,
                                  leading_eig_extremes, lift,
                                  modified_chebyshev, mp_pd_solve,
                                  orthonormal_min_eigs, pd_factor)

EXTENDED = PrecisionMode.EXTENDED
RATIONAL = PrecisionMode.RATIONAL
GEO3 = JacobiCoefficients.geometric(3)
GEO22 = JacobiCoefficients.geometric(2.2)
CARLEMAN_09 = JacobiCoefficients.from_rules(lambda n: (n + 1) ** 0.9,
                                            lambda n: 0)
CARLEMAN_1 = JacobiCoefficients.from_rules(lambda n: n + 1, lambda n: 0)
# a family of the kind the Krein kernel is benchmarked on
RANDOM = JacobiCoefficients.from_arrays(
    [1.0] + np.random.default_rng(26).uniform(0.5, 2.0, 48).tolist(),
    np.random.default_rng(27).uniform(-1.0, 1.0, 48).tolist())
Z, LAM = 0.3 + 1j, -0.4 + 0.2j


def _fields(x):
    """x as nested tuples of exact fields, with no repr of a number type
    that could differ between mpmath backends."""
    if isinstance(x, np.ndarray):
        if x.dtype != object:
            return ("array", x.dtype.str, x.shape, x.tobytes().hex())
        return ("object", x.shape, tuple(map(_fields, x.ravel().tolist())))
    if isinstance(x, (list, tuple)):
        return tuple(map(_fields, x))
    if hasattr(x, "_mpf_"):
        sign, man, exp, bc = x._mpf_
        return ("mpf", int(sign), int(man), int(exp), int(bc))
    if hasattr(x, "_mpc_"):
        return ("mpc", _fields(_EXTENDED.make_mpf(x._mpc_[0])),
                _fields(_EXTENDED.make_mpf(x._mpc_[1])))
    if isinstance(x, Fraction):
        return ("Fraction", x.numerator, x.denominator)
    if isinstance(x, bool):
        return ("bool", x)
    if isinstance(x, int):
        return ("int", x)
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, complex):
        return ("complex", x.real.hex(), x.imag.hex())
    raise TypeError(f"no exact fields for {type(x).__name__}")


def _digest(value) -> str:
    return hashlib.sha256(repr(_fields(value)).encode()).hexdigest()


def _data(precision, shift):
    r = response_vector(GEO3, 79, precision).as_array()
    return r if shift else response_to_moments(r, precision).as_array()


def _chebyshev(precision, shift):
    nu = _data(precision, shift)
    return nu, modified_chebyshev(nu, 40, shift, precision)


def _wide_span_moments():
    # Carleman(1) moments with each zero odd moment replaced by a value
    # near 1e-300: rows span about 2^1000 below their largest entry
    s = np.array(response_to_moments(response_vector(CARLEMAN_1, 79, EXTENDED),
                                     EXTENDED).as_array())
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
    a, b = coeffs.a_head(24), coeffs.b_head(23)
    r = response_vector(coeffs, 47, EXTENDED).as_array()
    s = response_to_moments(r, EXTENDED).as_array()
    return (orthonormal_min_eigs(a, b, 0, EXTENDED),
            orthonormal_min_eigs(a, b, 1, EXTENDED),
            leading_eig_extremes(build_hankel(s, 24).matrix, s, 0, EXTENDED),
            leading_eig_extremes(connecting_from_response(r, 24).matrix, r, 1,
                                 EXTENDED),
            gram_max_eigs(control_operator(coeffs, 24, EXTENDED).matrix,
                          EXTENDED))


def _krein():
    w = control_operator(RANDOM, 24, EXTENDED).matrix
    rhs = lift([complex(k + 1, -k) / 5 for k in range(24)], EXTENDED)
    return (kernel_finite(RANDOM, Z, LAM, 24, method="krein",
                          precision=EXTENDED),
            gram_solve(w, rhs))


def _pd_solve():
    r = response_vector(RANDOM, 47, EXTENDED)
    mat = lift(connecting_from_response(r, 24).matrix, EXTENDED)
    rhs = [complex(1, k) / (k + 3) for k in range(24)]
    return pd_factor(mat), mp_pd_solve(mat, rhs)


CASES = {
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
    "eigen-sequences-geometric2.2": lambda: _eigen_sequences(GEO22),
    "eigen-sequences-carleman0.9": lambda: _eigen_sequences(CARLEMAN_09),
    "krein-kernel-extended": _krein,
    "pd-factor-and-solve-extended": _pd_solve,
}

PINNED = {
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
    'control-operator-extended':
        '36ba435d8a19843be874dc41330d8ca7902ffdc30d0b153efb7947c53f3cc95c',
    'control-operator-rational':
        'f4f4709e1b26439501cdea3d3544958d9e9a716fa36f949c91848039b387fc16',
    'eigen-sequences-carleman0.9':
        'f7f4ea879e39019d355f21a527e328126f3854c2432ae15daf29cbaa5a1109b2',
    'eigen-sequences-geometric2.2':
        'cfcd0e79ae74afda832043ce911fc01eb517042768593a3bbb985dbcfbd1771c',
    'krein-kernel-extended':
        '40f86ec539be2fba2ff75d8ce8466fa857797f47c60d1163cf17ac974bc0065d',
    'moments-to-response-extended':
        '188445f8c90c71f676d49d652336636166b1e4203086946169394c419656f56b',
    'pd-factor-and-solve-extended':
        'eee96c322129297151a1e34feebba88675922d425f9b84e85255cf4499dcc36b',
    'semi-infinite-complex-control':
        '27f75d8ef2ca2b496746642f37d3fbbd92b1458f1af7ab4743deb609d3f5b712',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bits_are_pinned(name):
    assert _digest(CASES[name]()) == PINNED[name]
