"""The same coefficients give the same bits however they are spelled.

Every polynomial route (deficiency sums, circle bounds, p_n and q_n, the
direct and infinite kernels, E_T, the extension parameter and the field
assembled from spectral data) runs the one three-term recurrence of
``spectral``, in float64 for every spelling of a_n and b_n: each
coefficient enters DOUBLE by the number table (``_multiprec._enter``).
The families lie on a 1/8 grid, so every spelling below holds the same
numbers exactly: floats, Fractions, numpy float64, mpf of the EXTENDED
context, and ints wherever the value is integral (floats elsewhere).  ``classify`` adds the
eigenvalue sequences, which read the coefficients in the arithmetic of
their mode; RATIONAL refuses an mpf by design, so the mpf spelling is
left out there.  Sizes reach past 60, the depth of ``classify``'s
deficiency sums and circle bounds.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from jacobi_bc import (JacobiCoefficients, PrecisionMode,
                       circle_bound_connecting, circle_bound_hankel, classify,
                       deficiency_partial_sums, extension_parameter,
                       hermite_biehler, kernel_finite, kernel_infinite,
                       solution_via_spectrum)
from jacobi_bc._multiprec import _enter
from jacobi_bc.spectral import eval_p_all, eval_q_all

from test_spellings import _canon, _outcome

Z, LAM = 0.3 + 1j, -0.4 + 0.2j
NODES = np.array([0.3 + 1j, -0.5 + 0.25j, 1.5j, 0.75])
# classify's eigenvalue sequences are cheap at this depth; its deficiency
# sums and circle bounds still run to min(60, size)
N_MAX = 6
SPECTRAL_SIZE = 8    # of the dense eigensolve of solution_via_spectrum
CONTROL = [Fraction(1, 2), Fraction(-1, 4), 1, Fraction(1, 8)]


def _spell(values, spelling):
    """``values`` (Fractions on the 1/8 grid) in one spelling."""
    if spelling == "numpy float64":
        return np.array(values, dtype=float)
    convert = {"float": float, "Fraction": Fraction,
               "mpf": lambda x: _enter(x, PrecisionMode.EXTENDED),
               "int": lambda x: int(x) if x.denominator == 1 else float(x)}
    return [convert[spelling](Fraction(x)) for x in values]


SPELLINGS = ("float", "Fraction", "numpy float64", "mpf", "int")


def _limit_circle_tail(coeffs, size):
    """The family continued by a_n = 2^(n - size + 1) a_{size-1}, b_n = 0:
    limit circle, so ``kernel_infinite`` converges, and the tail holds
    the same numbers in every spelling."""
    return JacobiCoefficients.from_rules(
        lambda n: (coeffs.a(n) if n < size
                   else coeffs.a(size - 1) * 2 ** (n - size + 1)),
        lambda n: coeffs.b(n) if n <= size else coeffs.a(0) - coeffs.a(0))


def _routes(size):
    depth = min(60, size)
    spectral_size = min(SPECTRAL_SIZE, size)
    # at most 2 TAIL_WINDOW terms: the bounds skip their tail test
    shallow = min(10, size)
    routes = {
        "deficiency_partial_sums": lambda co: deficiency_partial_sums(
            co, depth),
        "circle_bound_hankel": lambda co: circle_bound_hankel(co, depth),
        "circle_bound_connecting": lambda co: circle_bound_connecting(
            co, depth),
        "circle_bound_hankel shallow": lambda co: circle_bound_hankel(
            co, shallow),
        "circle_bound_connecting shallow": lambda co:
            circle_bound_connecting(co, shallow),
        "eval_p_all scalar": lambda co: eval_p_all(co, size, Z),
        "eval_p_all array": lambda co: eval_p_all(co, size, NODES),
        "eval_q_all scalar": lambda co: eval_q_all(co, size, Z),
        "eval_q_all array": lambda co: eval_q_all(co, size, NODES),
        "kernel_finite direct": lambda co: kernel_finite(
            co, Z, NODES, size, method="direct"),
        "kernel_infinite": lambda co: kernel_infinite(
            _limit_circle_tail(co, size), Z, LAM),
        "hermite_biehler": lambda co: hermite_biehler(co, size)(NODES),
        "extension_parameter": lambda co: extension_parameter(
            co, max(size, 2)),
    }
    for mode in PrecisionMode:
        routes[f"classify {mode.value}"] = (
            lambda co, mode=mode: classify(co, N_MAX, mode))
    for spelling in SPELLINGS[:4]:
        routes[f"solution_via_spectrum, {spelling} control"] = (
            lambda co, control=_spell(CONTROL, spelling):
                solution_via_spectrum(co, spectral_size, control, 6))
    return routes


@st.composite
def eighths_families(draw):
    """a_0 = 1, a_k in [1/2, 2] and b_k in [-1, 1] on the 1/8 grid."""
    size = draw(st.integers(2, 70))
    a = draw(st.lists(st.integers(4, 16), min_size=size - 1,
                      max_size=size - 1))
    b = draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size))
    return ([1] + [Fraction(k, 8) for k in a], [Fraction(k, 8) for k in b])


def _seeded_family(size, seed):
    rng = np.random.default_rng(seed)
    return ([1] + [Fraction(int(k), 8) for k in rng.integers(4, 17, size - 1)],
            [Fraction(int(k), 8) for k in rng.integers(-8, 9, size)])


@settings(max_examples=8, deadline=None)
@given(family=eighths_families())
@example(family=_seeded_family(70, 3))
@example(family=_seeded_family(61, 7))
def test_every_spelling_of_the_coefficients_gives_the_same_bits(family):
    a, b = family
    families = {spelling: JacobiCoefficients.from_arrays(_spell(a, spelling),
                                                         _spell(b, spelling))
                for spelling in SPELLINGS}
    for name, route in _routes(len(b)).items():
        want = _outcome(route, families["float"])
        for spelling, coeffs in families.items():
            if spelling == "mpf" and name == "classify rational":
                continue
            assert _outcome(route, coeffs) == want, (name, spelling)


def test_classify_reads_an_exact_coefficient_as_its_float():
    # a Fraction a_1 = 10^-200 made classify raise a bare OverflowError
    # (errno 34) in every mode; the recurrence reads it as the float
    # 1e-200, so the deficiency sums are those of the float family
    a, b = [1, Fraction(1, 10 ** 200)] + [1] * 10, [0] * 12
    floats = JacobiCoefficients.from_arrays([float(x) for x in a], [0.0] * 12)
    want = _canon(deficiency_partial_sums(floats, 12))
    for mode in PrecisionMode:
        report = classify(JacobiCoefficients.from_arrays(a, b), N_MAX, mode)
        assert _canon((report.deficiency_p, report.deficiency_q)) == want
