"""One verdict for response and moment data.

Whether r is a response (C_N positive definite) or s a moment sequence
(S_N positive definite) is decided by the signs of Wheeler's pivots,
run in the mode's own arithmetic, exact Fractions in RATIONAL: recovery,
``validate_response``, ``hankel_positivity`` and the eigenvalue sequences
take the same run, so no call contradicts another on the same data.
"""

import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jacobi_bc import (
    ConditioningError,
    ConditioningWarning,
    JacobiBCError,
    JacobiCoefficients,
    NotAMomentSequenceError,
    NotAResponseVectorError,
    PrecisionMode,
    build_hankel,
    connecting_eig_sequences,
    connecting_from_response,
    hankel_min_eigs,
    hankel_positivity,
    recover_from_moments,
    recover_from_response,
    response_to_moments,
    response_vector,
    validate_response,
)
from jacobi_bc import _multiprec
from jacobi_bc._multiprec import EXTENDED_DPS, sym_eigenvalues

from conftest import random_coefficients, semicircle_moments

DOUBLE, EXTENDED, RATIONAL = (PrecisionMode.DOUBLE, PrecisionMode.EXTENDED,
                              PrecisionMode.RATIONAL)


def _recovered(recover, data, horizon, precision, failure):
    """Recovery's verdict: False where it finds a pivot that is not
    positive; a pivot ratio below the DOUBLE floor is no verdict on the
    data, so it counts as accepted."""
    try:
        recover(data, horizon, precision)
    except failure:
        return False
    except ConditioningError:
        pass
    return True


def _seven_draws():
    """300 genuine DOUBLE responses of sizes 17-39, seed 7: rounding makes
    many of them fail a pivot."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        size = int(rng.integers(17, 40))
        yield size, response_vector(random_coefficients(rng, size),
                                    2 * size - 1).as_array()


def test_validation_is_recovery_on_rounded_responses():
    # the parent's eigen-solve accepted 82 of these and disagreed with
    # recovery on 49
    accepted = 0
    for draw, (size, r) in enumerate(_seven_draws()):
        verdict = validate_response(r, size)
        assert verdict.accepted is _recovered(
            recover_from_response, r, size, DOUBLE,
            NotAResponseVectorError), draw
        assert verdict.accepted == (verdict.min_eigenvalue > 0)
        accepted += verdict.accepted
        if draw == 285:
            # pivot 24 of C_25 fails, while the eigen-solve of C_25 gives
            # a positive value: the clamp reports 0.0
            assert size == 25
            with pytest.raises(NotAResponseVectorError, match="pivot 24 "):
                recover_from_response(r, size)
            matrix = connecting_from_response(r, size).matrix
            assert sym_eigenvalues(matrix, DOUBLE)[0] > 0
            assert verdict.min_eigenvalue == 0.0
            beta, _ = connecting_eig_sequences(r, size)
            assert beta[23] > 0 and beta[24] == 0.0
    assert accepted == 129


def _finite_rank_data(horizon_past_rank):
    """Exact responses and moments of 40 families of size n = 2..7 on a
    1/3 grid, read to T = n + horizon_past_rank."""
    rnd = random.Random(3)
    for _ in range(40):
        n = rnd.randint(2, 7)
        a = [1] + [Fraction(rnd.randint(1, 6), 3) for _ in range(n - 1)]
        b = [Fraction(rnd.randint(-3, 3), 3) for _ in range(n)]
        horizon = n + horizon_past_rank
        r = response_vector(JacobiCoefficients.from_arrays(a, b),
                            2 * horizon - 1, RATIONAL).as_array()
        yield n, horizon, r, response_to_moments(r, RATIONAL).as_array()


@pytest.mark.parametrize("past_rank", [0, 1])
def test_exact_data_are_judged_as_exact_recovery_judges_them(past_rank):
    # an n-atom measure: C_T and S_T are singular from T = n + 1 on.  The
    # parent judged them by EXTENDED residues and accepted some
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for n, horizon, r, s in _finite_rank_data(past_rank):
            genuine = not past_rank
            assert _recovered(recover_from_response, r, horizon, RATIONAL,
                              NotAResponseVectorError) is genuine
            assert _recovered(recover_from_moments, s, horizon, RATIONAL,
                              NotAMomentSequenceError) is genuine
            verdict = validate_response(r, horizon, RATIONAL)
            report = hankel_positivity(s, horizon, RATIONAL)
            beta, _ = connecting_eig_sequences(r, horizon, RATIONAL)
            assert verdict.accepted is report.solvable is genuine
            assert bool((beta > 0).all()) is genuine
            if not genuine:
                assert verdict.min_eigenvalue <= 0
                assert report.first_failure == n + 1
                assert report.min_eigenvalues[n] <= 0 and beta[n] <= 0


@pytest.mark.parametrize("precision", [EXTENDED, RATIONAL])
def test_an_exact_response_beyond_the_float_range_is_accepted(precision):
    # C_40 of geometric(3) has entries of up to 745 digits; the parent's
    # eigen-solve read its smallest eigenvalue as -inf and rejected it
    r = response_vector(JacobiCoefficients.geometric(3), 79, RATIONAL)
    verdict = validate_response(r, 40, precision)
    oracle = mpmath.MPContext()
    oracle.dps = 8 * EXTENDED_DPS
    exact = connecting_from_response(r, 40, RATIONAL).matrix.tolist()
    want = min(oracle.eigsy(oracle.matrix(
        [[oracle.mpf(x.numerator) / x.denominator for x in row]
         for row in exact]), eigvals_only=True))
    assert verdict.accepted
    assert abs(verdict.min_eigenvalue / float(want) - 1) <= 1e-12


@pytest.fixture
def eigen_solves(monkeypatch):
    """The sizes of the blocks ``sym_eigenvalues`` solves."""
    sizes = []
    solve = _multiprec.sym_eigenvalues

    def counted(matrix, precision):
        sizes.append(np.asarray(matrix).shape[0])
        return solve(matrix, precision)

    monkeypatch.setattr(_multiprec, "sym_eigenvalues", counted)
    return sizes


@pytest.mark.parametrize("precision", list(PrecisionMode))
def test_validation_eigen_solves_only_data_it_rejects(rng, eigen_solves,
                                                      precision):
    r = response_vector(random_coefficients(rng, 6), 11).as_array()
    beta, _ = connecting_eig_sequences(r, 6, precision)
    verdict = validate_response(r, 6, precision)
    assert verdict.accepted and eigen_solves == []
    # the certificate is the last value of the sequence, bit for bit
    assert verdict.min_eigenvalue == beta[-1]
    verdict = validate_response([1, 2, 0], 2, precision)
    assert not verdict.accepted and eigen_solves == [2]
    assert abs(verdict.min_eigenvalue - (-1.0)) < 1e-12


def test_a_certificate_below_the_double_range_raises():
    # geometric(1/10): the exact pivots of C_20 are positive, and its
    # smallest eigenvalue lies far below 1e-308; 0.0 would reject it
    r = response_vector(JacobiCoefficients.geometric(Fraction(1, 10)), 39,
                        RATIONAL)
    recover_from_response(r, 20, RATIONAL)
    with pytest.raises(ConditioningError, match="pivots accept the block"):
        validate_response(r, 20, RATIONAL)


def _geometric_tenth(size):
    """The exact response and moments of geometric(1/10) read to T = size:
    at T = 19 and 20 the pivots accept C_T and S_T, whose smallest
    eigenvalues lie below the double range."""
    r = response_vector(JacobiCoefficients.geometric(Fraction(1, 10)),
                        2 * size - 1, RATIONAL).as_array()
    return size, r, response_to_moments(r, RATIONAL).as_array()


@pytest.mark.parametrize("size", [18, 19, 20])
def test_every_reader_refuses_a_block_below_the_double_range(size):
    # the parent's hankel_positivity reported solvable=False at 19 and 20
    # from an underflowed 0.0, and the sequences read 0.0 there, where
    # exact recovery and the pivots accept the data
    horizon, r, s = _geometric_tenth(size)
    recover_from_response(r, horizon, RATIONAL)
    recover_from_moments(s, horizon, RATIONAL)
    readers = (lambda: validate_response(r, horizon, RATIONAL).min_eigenvalue,
               lambda: hankel_positivity(s, horizon, RATIONAL).solvable,
               lambda: hankel_min_eigs(s, horizon, RATIONAL)[-1],
               lambda: connecting_eig_sequences(r, horizon, RATIONAL)[0][-1])
    with warnings.catch_warnings():    # lambda_18 lies below the floor
        warnings.simplefilter("ignore", ConditioningWarning)
        for reader in readers:
            if size == 18:
                assert reader() > 0
            else:
                with pytest.raises(ConditioningError,
                                   match="pivots accept the block, but its "
                                         "smallest eigenvalue is below"):
                    reader()


def _outcome(call):
    """The float that ``call`` returns, as its hex digits, or the type
    and message of the error it raises."""
    try:
        return float(call()).hex()
    except JacobiBCError as exc:
        return type(exc).__name__, str(exc)


def _moments_verdict(s, horizon, precision):
    """Recovery's verdict on the moments: False on a pivot that is not
    positive, None where recovery raises anything else."""
    try:
        recover_from_moments(s, horizon, precision)
    except NotAMomentSequenceError:
        return False
    except JacobiBCError:
        return None
    return True


@st.composite
def _eighths_data(draw):
    """The exact response and moments of a family of size n = 2..12 on the
    1/8 grid, a_k in [1/2, 2] and b_k in [-1, 1], read to T = 1..2n."""
    n = draw(st.integers(2, 12))

    def eighths(low, high, count):
        return draw(st.lists(st.integers(low, high).map(
            lambda k: Fraction(k, 8)), min_size=count, max_size=count))

    coeffs = JacobiCoefficients.from_arrays([1] + eighths(4, 16, n - 1),
                                            eighths(-8, 8, n))
    horizon = draw(st.integers(1, 2 * n))
    r = response_vector(coeffs, 2 * horizon - 1, RATIONAL).as_array()
    return horizon, r, response_to_moments(r, RATIONAL).as_array()


@settings(max_examples=20)
@given(data=_eighths_data())
@example(data=_geometric_tenth(18))
@example(data=_geometric_tenth(19))
@example(data=_geometric_tenth(20))
def test_the_certificate_and_the_verdicts_have_one_reader(data):
    # validation reads the last block of the sequences' own computation,
    # and hankel_positivity judges the moments as recovery does
    horizon, r, s = data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for precision in PrecisionMode:
            certificate = _outcome(lambda: validate_response(
                r, horizon, precision).min_eigenvalue)
            assert certificate == _outcome(lambda: connecting_eig_sequences(
                r, horizon, precision)[0][-1]), precision
            try:
                solvable = hankel_positivity(s, horizon, precision).solvable
            except JacobiBCError:
                continue
            # rounding to the mode moves the pivots (geometric(1/10) fails
            # pivot 5 in DOUBLE and 8 in EXTENDED), so the oracle is
            # recovery in the same mode: exact recovery in RATIONAL
            verdict = _moments_verdict(s, horizon, precision)
            assert verdict is None or solvable is verdict, precision


def test_an_overflowed_double_row_of_q_raises(monkeypatch):
    # a float row of Q that overflows never reaches LAPACK, and its
    # accepting pivots are not paired with the certificate 0.0
    rows = _multiprec._orthonormal_rows

    def overflowed(alpha, root_beta, shift):
        coef = rows(alpha, root_beta, shift)
        coef[-1, 0] = np.inf
        return coef

    monkeypatch.setattr(_multiprec, "_orthonormal_rows", overflowed)
    r = response_vector(JacobiCoefficients.free(), 9).as_array()
    with pytest.raises(ConditioningError, match="beyond double precision"):
        validate_response(r, 5)


# The noise floors of ``hankel_min_eigs``: 1e3 eps ||S_N|| in DOUBLE and
# 1e-45 ||S_N|| in EXTENDED.  The semicircle's lambda_N / ||S_N|| falls by
# about 10 a block, so one block lies inside each window between the
# floor and a floor 100 (DOUBLE) or 1e10 (EXTENDED) times as high.
@pytest.mark.parametrize("precision, last_quiet", [(DOUBLE, 16),
                                                   (EXTENDED, 48)])
def test_the_noise_floor_warns_from_its_own_block(precision, last_quiet):
    moments = semicircle_moments(2 * last_quiet + 1)
    mins, maxs = _multiprec.leading_eig_extremes(
        build_hankel(moments, last_quiet + 1, precision).matrix, moments, 0,
        precision)
    ratio = mins / np.maximum(maxs, 1.0)
    unit = (1e3 * np.finfo(float).eps if precision is DOUBLE
            else 10.0 ** -45)
    window = 1e2 if precision is DOUBLE else 1e10
    assert unit <= ratio[last_quiet - 1] < unit * window
    assert ratio[last_quiet] < unit
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        hankel_min_eigs(moments, last_quiet, precision)
    with pytest.warns(ConditioningWarning, match=f"at N={last_quiet + 1} "):
        hankel_min_eigs(moments, last_quiet + 1, precision)
