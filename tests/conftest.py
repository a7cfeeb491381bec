import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from jacobi_bc import JacobiCoefficients, materialize_matrix

# every property test: no per-example deadline (the object modes are
# slow), and the same examples on every run
settings.register_profile("jacobi_bc", deadline=None, derandomize=True)
settings.load_profile("jacobi_bc")


def random_coefficients(rng, size, a_range=(0.5, 2.0), b_range=(-1.0, 1.0)):
    """Finite instance with a_k in a_range, b_k in b_range."""
    a = np.concatenate([[1.0], rng.uniform(*a_range, max(size - 1, 0))])
    b = rng.uniform(*b_range, size)
    return JacobiCoefficients.from_arrays(a, b)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def semicircle_moments(count: int) -> list:
    """Moments of the free-coefficient spectral measure: s_{2k} is the
    k-th Catalan number, odd moments vanish.  Independent integer oracle."""
    return [catalan(k // 2) if k % 2 == 0 else 0 for k in range(count)]


def matrix_moment(coeffs, m: int) -> float:
    """Moment oracle <(A^M)^m e_1, e_1> with M = m + 1 (any M >= m + 1
    gives the same value by finite propagation)."""
    size = max(m + 1, 1)
    mat = materialize_matrix(coeffs, size)
    vec = np.zeros(size)
    vec[0] = 1.0
    for _ in range(m):
        vec = mat @ vec
    return float(vec[0])


def report_fields(report) -> tuple:
    """Every field of a DeterminacyReport, arrays as lists, so that two
    reports compare exactly."""
    return tuple(v.tolist() if isinstance(v, np.ndarray) else v
                 for v in vars(report).values())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def dot_conversion(s, precision):
    """transform @ s as each transform row's ``_multiprec.dot`` sums it
    over the lifted array: the conversion that summed the moments row by
    row before they were summed on their integer form, kept as the
    oracle of ``moments_to_response`` and of the moment route of
    recovery."""
    from jacobi_bc._multiprec import dot, lift, lift_ints
    from jacobi_bc.core import sequence_values
    from jacobi_bc.moments import _transform_rows

    sx = lift(sequence_values(s), precision)
    r = np.empty_like(sx)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(_transform_rows(sx.size)):
            r[i] = dot(lift_ints(row, precision), sx[i % 2:i + 1:2])
    return r


def dot_substitution(r, precision):
    """transform^-1 r as each transform row's ``_multiprec.dot`` over the
    entries found subtracts it, on the unit diagonal: the substitution
    the object modes ran before they summed r on its integer form, kept
    as the oracle of the float and the inf or NaN route of
    ``response_to_moments`` and to build inputs as it made them."""
    from jacobi_bc._multiprec import dot, lift, lift_ints
    from jacobi_bc.moments import _transform_rows

    s = lift(r, precision)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(_transform_rows(s.size)):
            s[i] = s[i] - dot(lift_ints(row[:-1], precision), s[i % 2:i:2])
    return s


def exact_fields(x):
    """x as nested tuples of exact fields, with no repr of a number type
    that could differ between mpmath backends: the bytes of a float
    array, and the sign, mantissa, exponent and bit count of every mpf
    (both parts of an mpc), the terms of a Fraction, the hex of a
    float."""
    from jacobi_bc._multiprec import _EXTENDED

    if isinstance(x, np.ndarray):
        if x.dtype != object:
            return ("array", x.dtype.str, x.shape, x.tobytes().hex())
        return ("object", x.shape, tuple(map(exact_fields, x.ravel().tolist())))
    if isinstance(x, (list, tuple)):
        return tuple(map(exact_fields, x))
    if hasattr(x, "_mpf_"):
        sign, man, exp, bc = x._mpf_
        return ("mpf", int(sign), int(man), int(exp), int(bc))
    if hasattr(x, "_mpc_"):
        return ("mpc", exact_fields(_EXTENDED.make_mpf(x._mpc_[0])),
                exact_fields(_EXTENDED.make_mpf(x._mpc_[1])))
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
    if x is None or isinstance(x, str):    # no error, or its message
        return (type(x).__name__, x)
    raise TypeError(f"no exact fields for {type(x).__name__}")
