"""Recovery of Jacobi coefficients from response vectors or moments.

The corner-top connecting matrix factors as C_T = W_T^* W_T, and the
Cholesky factor with positive diagonal is unique, so the factor IS the
control operator: its diagonal ratios return the off-diagonal entries
a_k and its first superdiagonal carries the partial sums b_1 + ... + b_k
(scaled by the diagonal), whose differences return the diagonal entries.
b_T itself never influences the states within the horizon and is not
recoverable.  The same ratio extraction applied to the transposed lower
Cholesky factor of the Hankel block S_T gives the classical
orthogonal-polynomial route, kept as an independent path.

The superdiagonal identity behind the b-extraction ships as a tested
lemma (oracle: forward simulation), not an assumption; the test suite
also checks that the Cholesky factor reproduces the simulated control
operator entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConditioningError,
    JacobiBCError,
    JacobiCoefficients,
    NotAMomentSequenceError,
    NotAResponseVectorError,
    PrecisionMode,
    sequence_values,
)
from .dynamics import response_vector
from .moments import build_hankel, moments_to_response
from .connecting import Orientation, connecting_from_response
from ._multiprec import lift, pd_factor, pivot_floor

__all__ = ["RecoveryResult", "recover_from_response", "recover_from_moments"]


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered a_1..a_{T-1}, b_1..b_{T-1} with a round-trip residual.

    ``coefficients`` holds a_0 = 1 plus the recovered entries; the
    residual is the max deviation between the input response and the
    response re-simulated from the recovered coefficients over the
    window where the two systems must agree.
    """

    coefficients: JacobiCoefficients
    residual: float
    path: str
    precision: PrecisionMode

    @property
    def a(self) -> np.ndarray:
        """Recovered (a_1, ..., a_{T-1})."""
        return np.array(self.coefficients.a_head(self.coefficients.size + 1)[1:],
                        dtype=float)

    @property
    def b(self) -> np.ndarray:
        """Recovered (b_1, ..., b_{T-1})."""
        return np.array(self.coefficients.b_head(self.coefficients.size),
                        dtype=float)


def _factor_and_extract(matrix, precision: PrecisionMode,
                        failure: type[JacobiBCError], label: str):
    """a_1..a_{T-1} and b_1..b_{T-1} off matrix = L diag(d) L^T, unit L,
    factored in the arithmetic of ``precision``.

    a_k = sqrt(d_k / d_{k-1}) is the ratio of consecutive Cholesky
    diagonal entries; the subdiagonal of L holds the partial sums
    b_1 + ... + b_k, so b comes from their differences, which stay exact
    for an exact factor.  Only the a square roots leave the factor's
    arithmetic.  A factorization failure means the data fail their
    positivity characterization; a pivot ratio below the mode's floor
    means float64 data no longer determine the coefficients.
    """
    try:
        low, piv = pd_factor(lift(matrix, precision))
    except np.linalg.LinAlgError as exc:
        raise failure(
            f"{label}: the matrix is not positive definite at "
            f"{precision.value} precision ({exc}); genuine but "
            f"ill-conditioned data may need more digits") from exc
    pivot_ratios = np.sqrt((piv / np.max(piv)).astype(float))
    ratios = piv[1:] / piv[:-1]
    b_rec = np.diff(np.diagonal(low, -1), prepend=0)
    worst = int(np.argmin(pivot_ratios))
    if pivot_ratios[worst] < pivot_floor(precision):
        raise ConditioningError(
            f"Cholesky pivot ratio {pivot_ratios[worst]:.3e} at index {worst} "
            f"is below {pivot_floor(precision):g}; use extended precision")
    return np.sqrt(ratios.astype(float)).tolist(), b_rec.astype(float).tolist()


def _result(a_rec, b_rec, reference, horizon, path, precision) -> RecoveryResult:
    """The result with its round-trip residual: the max response deviation
    over the window 0..2(T-1)-1 where the recovered size-(T-1) system must
    match the input."""
    coeffs = JacobiCoefficients.from_arrays([1.0] + a_rec, b_rec)
    window = 2 * horizon - 2
    residual = 0.0
    if window:
        simulated = response_vector(coeffs, window).as_array()
        reference = np.asarray(reference[:window], dtype=float)
        residual = float(np.max(np.abs(simulated - reference)))
    return RecoveryResult(coefficients=coeffs, residual=residual,
                          path=path, precision=precision)


def recover_from_response(r, horizon: int,
                          precision: PrecisionMode = PrecisionMode.DOUBLE) -> RecoveryResult:
    """Coefficients from r_0..r_{2T-2} via the connecting-matrix factorization.

    Builds the corner-top connecting matrix, Cholesky-factors it, and
    reads the coefficients off the factor.  A factorization failure means
    the data is not a response vector of any genuine system.
    """
    rv = sequence_values(r)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    a_rec, b_rec = _extract_from_response(rv, horizon, precision)
    return _result(a_rec, b_rec, rv, horizon, "BoundaryControl", precision)


def _extract_from_response(rv, horizon: int, precision: PrecisionMode):
    """a_1..a_{T-1} and b_1..b_{T-1} off the corner-top connecting matrix."""
    conn = connecting_from_response(rv, horizon).aligned(Orientation.CORNER_TOP)
    return _factor_and_extract(conn.matrix, precision, NotAResponseVectorError,
                               "not a response vector")


def recover_from_moments(s, horizon: int,
                         precision: PrecisionMode = PrecisionMode.DOUBLE) -> RecoveryResult:
    """Coefficients from s_0..s_{2T-2} via the Hankel factorization.

    Factors S_T = L L^T and reads the three-term recurrence off L (the
    rows of L^{-1} are the orthonormal polynomial coefficients); the
    independent route through the response conversion is computed as
    well, and the two must agree within 1e-8.
    """
    sv = sequence_values(s)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    hank = build_hankel(sv, horizon)
    a_rec, b_rec = _factor_and_extract(
        hank.matrix, precision, NotAMomentSequenceError,
        "not a moment sequence of a positive measure")

    converted = moments_to_response(sv[:2 * horizon - 1], precision)
    a_cross, b_cross = _extract_from_response(converted.as_array(), horizon,
                                              precision)
    gap = np.max(np.abs(np.array(a_rec + b_rec) - np.array(a_cross + b_cross)),
                 initial=0.0)
    if gap > 1e-8:
        raise JacobiBCError(
            f"Hankel and boundary-control recovery paths disagree by {gap:.3e}; "
            f"the data is too ill-conditioned for {precision.value} precision")

    return _result(a_rec, b_rec, converted.as_array(), horizon,
                   "Hankel", precision)
