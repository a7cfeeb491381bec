import math

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
