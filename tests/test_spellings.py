"""The same numbers give the same answer however they are spelled.

A response or moment sequence may be passed as a list, as that list with
one entry written as the float that holds it exactly, as an object
ndarray or as its ``ResponseVector`` or ``MomentSequence``; a block as a
nested list, an object ndarray or its ``ConnectingMatrix`` or
``HankelMatrix``; a control as a list, that list with a float, an object
ndarray or a ``BoundaryControl``.  ``core`` reads them all by one rule,
so every data, block and control route gives identical outputs, or
raises the same error, for every spelling in every mode.  The data are
exact: the RATIONAL responses and moments of families on a 1/8 grid,
and the Catalan moments at T = 36..38, whose entries reach [2^63, 2^64),
where numpy's float64 would round a list of ints.
"""

import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jacobi_bc import (BoundaryControl, ConditioningError, ConnectingMatrix,
                       HankelMatrix, JacobiCoefficients, MomentSequence,
                       PrecisionMode, ResponseVector, apply_response,
                       build_hankel, connecting_eig_sequences,
                       control_operator, connecting_from_hankel,
                       connecting_from_response, hankel_min_eigs,
                       kernel_finite, krein_solve, krein_solve_hankel,
                       moments_to_response, recover_from_moments,
                       recover_from_response, response_to_moments,
                       response_vector, scalar_product, solve_finite,
                       validate_response)

from conftest import semicircle_moments

RATIONAL = PrecisionMode.RATIONAL
Z, LAM = 0.3 + 1j, -0.4 + 0.2j


def _canon(x):
    """x as nested tuples that are equal exactly when the outputs are
    identical: float bits, exact values (an int and the Fraction equal to
    it alike), the fields of every mpf and mpc."""
    if isinstance(x, (ResponseVector, MomentSequence)):
        return _canon(x.values)
    if isinstance(x, JacobiCoefficients):
        return _canon((x.a_head(x.size + 1), x.b_head(x.size)))
    if dataclasses.is_dataclass(x):
        return _canon(tuple(vars(x).values()))
    if isinstance(x, np.ndarray):
        if x.dtype != object:
            return ("array", x.dtype.str, x.shape, x.tobytes())
        return ("object", x.shape, _canon(x.ravel().tolist()))
    if isinstance(x, (list, tuple)):
        return tuple(map(_canon, x))
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return ("exact", Fraction(x))
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, complex):
        return ("complex", x.real.hex(), x.imag.hex())
    for field in ("_mpf_", "_mpc_"):
        if hasattr(x, field):
            return (field, getattr(x, field))
    return x


def _outcome(route, arg):
    """The canonical output of ``route(arg)``, or its error."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return _canon(route(arg))
        except Exception as exc:
            return type(exc).__name__, str(exc)


def _assert_same_for_every_spelling(routes, spellings):
    for name, route in routes.items():
        outcomes = {spelling: _outcome(route, arg)
                    for spelling, arg in spellings.items()}
        first = outcomes.pop("list")
        for spelling, outcome in outcomes.items():
            assert outcome == first, f"{name}: list and {spelling} differ"


def _eighths(low, high, count):
    """``count`` multiples k/8 with ``low`` <= k <= ``high``."""
    return st.lists(st.integers(low, high).map(lambda k: Fraction(k, 8)),
                    min_size=count, max_size=count)


@st.composite
def eighths_families(draw):
    """The exact response and moments, 2T - 1 of each, of a random family
    of size T on the 1/8 grid: a_k in [1/2, 2], b_k in [-1, 1]."""
    size = draw(st.integers(2, 6))
    coeffs = JacobiCoefficients.from_arrays(
        [1] + draw(_eighths(4, 16, size - 1)), draw(_eighths(-8, 8, size)))
    r = response_vector(coeffs, 2 * size - 1, RATIONAL).values.tolist()
    return size, r, response_to_moments(r, RATIONAL).values.tolist()


def _catalan(horizon):
    s = semicircle_moments(2 * horizon - 1)
    return horizon, moments_to_response(s, RATIONAL).values.tolist(), s


EXACT_DATA = st.one_of(eighths_families(),
                       st.sampled_from([36, 37, 38]).map(_catalan))


def _data_spellings(values, at, wrapper):
    """The four spellings of ``values``; entry ``at`` is written as its
    float in the second."""
    as_float = list(values)
    as_float[at] = float(values[at])
    return {"list": list(values), "one float": as_float,
            "object ndarray": np.array(values, dtype=object),
            "wrapper": wrapper(values)}


@settings(max_examples=12)
@given(data=EXACT_DATA, pick=st.integers(0, 2 ** 16))
@example(data=_catalan(36), pick=0)
@example(data=_catalan(37), pick=0)
@example(data=_catalan(38), pick=0)
def test_data_routes_read_every_spelling_alike(data, pick):
    horizon, r, s = data
    for values, wrapper, routes in (
            (r, ResponseVector, {
                "recover_from_response": lambda d, p: recover_from_response(
                    d, horizon, p),
                "connecting_eig_sequences": lambda d, p:
                    connecting_eig_sequences(d, horizon, p),
                "validate_response": lambda d, p: validate_response(
                    d, horizon, p),
                "response_to_moments": response_to_moments,
                "connecting_from_response": lambda d, p:
                    connecting_from_response(d, horizon, p),
                "apply_response": lambda d, p: apply_response(
                    d, [1, Fraction(-1, 2), 2], horizon, p)}),
            (s, MomentSequence, {
                "recover_from_moments": lambda d, p: recover_from_moments(
                    d, horizon, p),
                "hankel_min_eigs": lambda d, p: hankel_min_eigs(
                    d, horizon, p),
                "moments_to_response": moments_to_response,
                "build_hankel": lambda d, p: build_hankel(d, horizon, p)})):
        exact = [k for k, x in enumerate(values) if float(x) == x]
        spellings = _data_spellings(values, exact[pick % len(exact)], wrapper)
        _assert_same_for_every_spelling(
            {f"{name} {mode.value}": (lambda d, route=route, mode=mode:
                                       route(d, mode))
             for name, route in routes.items() for mode in PrecisionMode},
            spellings)


def _numpy_spellings(values):
    """The list; an object ndarray of numpy scalars, np.int64 for an int
    in its range and np.longdouble for any other value; and a longdouble
    ndarray.  The list alone where a longdouble cannot hold every value
    exactly."""
    longs = [np.longdouble(x.numerator) / x.denominator
             for x in map(Fraction, values)]
    if any(Fraction(*h.as_integer_ratio()) != x
           for h, x in zip(longs, values)):
        return {"list": list(values)}
    scalars = [np.int64(x) if type(x) is int and abs(x) < 2 ** 63 else h
               for x, h in zip(values, longs)]
    return {"list": list(values),
            "numpy scalars": np.array(scalars, dtype=object),
            "longdouble ndarray": np.array(longs, dtype=np.longdouble)}


@settings(max_examples=12)
@given(data=EXACT_DATA)
@example(data=_catalan(36))
@example(data=_catalan(37))
@example(data=_catalan(38))
def test_numpy_scalars_enter_as_the_numbers_they_hold(data):
    # the parent read an np.int64 or a longdouble of an object array into
    # EXTENDED through float64, and refused them in RATIONAL; a numpy
    # scalar must not reach the builders' sums as it is either, where
    # np.longdouble + Fraction computes in float64
    horizon, r, s = data
    control = [Fraction(-1) ** k / (k + 2) for k in range(horizon)]
    for values, routes in (
            (r, {"recover_from_response": lambda d, p: recover_from_response(
                     d, horizon, p),
                 "connecting_eig_sequences": lambda d, p:
                     connecting_eig_sequences(d, horizon, p),
                 "validate_response": lambda d, p: validate_response(
                     d, horizon, p),
                 "response_to_moments": response_to_moments,
                 "connecting_from_response": lambda d, p:
                     connecting_from_response(d, horizon, p),
                 "apply_response": lambda d, p: apply_response(
                     d, control, precision=p)}),
            (s, {"recover_from_moments": lambda d, p: recover_from_moments(
                     d, horizon, p),
                 "hankel_min_eigs": lambda d, p: hankel_min_eigs(
                     d, horizon, p),
                 "moments_to_response": moments_to_response,
                 "build_hankel": lambda d, p: build_hankel(d, horizon, p)})):
        _assert_same_for_every_spelling(
            {f"{name} {mode.value}": (lambda d, route=route, mode=mode:
                                       route(d, mode))
             for name, route in routes.items() for mode in PrecisionMode},
            _numpy_spellings(values))


def test_a_longdouble_among_fractions_keeps_the_sums_exact():
    scalars = np.array([np.longdouble(1), Fraction(0), Fraction(1, 3)],
                       dtype=object)
    corner = connecting_from_response(scalars, 2, RATIONAL).matrix[1, 1]
    assert type(corner) is Fraction and corner == Fraction(4, 3)
    assert apply_response(scalars, [0, 1], precision=RATIONAL).tolist() == [
        0, 1]
    assert apply_response(scalars, [1, 0, 1], precision=RATIONAL).tolist() == [
        1, 0, Fraction(4, 3)]


def test_a_longdouble_beyond_double_is_kept_exactly():
    # 1/3 as a longdouble is 12297829382473034411 / 2^65; times 2^1100 it
    # lies past 1.8e308 and keeps all 64 of its bits
    third = np.longdouble(1) / 3
    value = third * np.longdouble(2) ** 1100
    exact = 12297829382473034411 * 2 ** 1035
    assert Fraction(*third.as_integer_ratio()) == Fraction(
        12297829382473034411, 2 ** 65)
    for spelling in (np.array([value]), np.array([value], dtype=object)):
        moments = response_to_moments(spelling, RATIONAL).values
        assert moments.tolist() == [exact]
        moments = response_to_moments(spelling, PrecisionMode.EXTENDED).values
        assert moments[0]._mpf_ == (0, 12297829382473034411, 1035, 64)
        with pytest.raises(ConditioningError, match="exceeds double"):
            response_to_moments(spelling, PrecisionMode.DOUBLE)


def test_a_complex_numpy_control_keeps_its_imaginary_part():
    # the parent dropped the imaginary parts of a clongdouble control in
    # EXTENDED, with a ComplexWarning only
    coeffs = JacobiCoefficients.from_arrays([1, .5, .5], [0, 0, 0])
    control = [1 + 2j, .5j]
    extended = PrecisionMode.EXTENDED
    want = _canon(solve_finite(coeffs, 3, control, 2, extended))
    for dtype in (np.complex64, np.clongdouble):
        spelled = np.array(control, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _canon(solve_finite(coeffs, 3, spelled, 2, extended)) == want
        with pytest.raises(TypeError, match="in rational mode"):
            solve_finite(coeffs, 3, spelled, 2, RATIONAL)
    field = solve_finite(coeffs, 3, np.array(control, np.clongdouble), 2,
                         extended).values
    assert complex(field[0, 1]) == 1 + 2j


@settings(max_examples=6)
@given(data=EXACT_DATA)
@example(data=_catalan(36))
@example(data=_catalan(37))
@example(data=_catalan(38))
def test_block_routes_read_every_spelling_alike(data):
    horizon, r, s = data
    hankel = build_hankel(s, horizon, RATIONAL).matrix
    connecting = connecting_from_response(r, horizon, RATIONAL).matrix
    assert hankel.dtype == connecting.dtype == object
    f, g = [1, Fraction(1, 2)] * horizon, [Fraction(-3, 4), 2] * horizon
    routes = {"scalar_product": lambda c: scalar_product(
        f[:horizon], g[:horizon], c)}
    for mode in PrecisionMode:
        routes.update({
            f"connecting_from_hankel {mode.value}": lambda h, mode=mode:
                connecting_from_hankel(h, None, mode),
            f"krein_solve_hankel {mode.value}": lambda h, mode=mode:
                krein_solve_hankel(h, Z, mode),
            f"krein_solve {mode.value}": lambda c, mode=mode:
                krein_solve(c, Z, mode),
            f"kernel_finite {mode.value}": lambda c, mode=mode:
                kernel_finite(c, Z, LAM, precision=mode)})
    for block, wrapper in ((hankel, HankelMatrix),
                           (connecting, ConnectingMatrix)):
        _assert_same_for_every_spelling(
            {name: route for name, route in routes.items()
             if ("hankel" in name) is (wrapper is HankelMatrix)},
            {"list": block.tolist(), "object ndarray": block,
             "wrapper": wrapper(block)})


@pytest.mark.parametrize("precision", list(PrecisionMode))
def test_control_routes_read_every_spelling_alike(precision):
    # numpy reads this list as float64, which moves 3^40 by 33
    control = [2, 3 ** 40, 5]
    coeffs = JacobiCoefficients.from_arrays(
        [1, Fraction(3, 4), Fraction(5, 4)], [Fraction(1, 4), 0, -1])
    r = response_vector(coeffs, 3, RATIONAL).values
    routes = {
        "ControlOperatorMatrix.apply":
            lambda c: control_operator(coeffs, 3, precision).apply(c),
        "apply_response": lambda c: apply_response(r, c,
                                                   precision=precision),
        "solve_finite": lambda c: solve_finite(coeffs, 3, c, 3, precision)}
    _assert_same_for_every_spelling(routes, {
        "list": control, "one float": [2.0, 3 ** 40, 5],
        "object ndarray": np.array(control, dtype=object),
        "BoundaryControl": BoundaryControl(control)})
    if precision is RATIONAL:    # and the exact ints are kept
        assert (apply_response(r, control, precision=precision)[1]
                == 2 * r[1] + 3 ** 40)
        w = control_operator(coeffs, 3, precision)
        assert (w.apply(control).tolist()
                == (w.flipped() @ np.array(control, dtype=object)).tolist())
