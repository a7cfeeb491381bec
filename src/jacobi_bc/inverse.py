"""Recovery of Jacobi coefficients from response vectors or moments.

Responses and moments are modified moments of one spectral measure,
r_l = int U_l(x/2) dmu and s_l = int x^l dmu, so Wheeler's modified
Chebyshev algorithm (Rocky Mountain J. Math. 4 (1974); Gautschi,
Orthogonal Polynomials, OUP 2004, section 2.1.7) reads the recurrence of
the monic orthogonal polynomials p_k off either in O(T^2) operations,
with no matrix.  The recurrence itself lives in
``_multiprec.modified_chebyshev``, which ``leading_eig_extremes`` shares
for the eigenvalue sequences.  It runs both object modes on rows of
Python ints over one scale per row: RATIONAL returns exact Fractions,
and EXTENDED mpf rounded once from rows that keep 64 guard bits.  This
module converts its output to float coefficients, applies the
pivot-ratio floor and names the failure.  The squared norms int p_k^2
dmu are the LDL^T pivots of C_T (responses) or S_T (moments), so their
positivity is the data's characterization; the tests keep those
factorizations as the oracle.
b_T never influences the states within the horizon and is not recoverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConditioningError,
    JacobiBCError,
    JacobiCoefficients,
    NotAMomentSequenceError,
    NotAResponseVectorError,
    PrecisionMode,
    _as_float,
    sequence_values,
)
from .dynamics import response_vector
from .moments import moments_to_response
from ._multiprec import modified_chebyshev, pivot_floor, require_real

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


def _recurrence(nu, horizon: int, shift: int, precision: PrecisionMode,
                failure: type[JacobiBCError]):
    """a_1..a_{T-1}, b_1..b_{T-1} (floats) and the pivots sigma_kk (in the
    arithmetic of ``precision``) off the array nu_l = int pi_l dmu, by
    ``_multiprec.modified_chebyshev`` (shift 1: responses, 0: moments).

    b_{k+1} = alpha_k and a_k = sqrt(sigma_kk / sigma_{k-1,k-1}).  Raises
    ConditioningError on an overflowed row (before its pivot is tested)
    or a pivot ratio below the mode's floor, ``failure`` on a pivot <= 0.
    """
    try:
        piv, alpha, _ = modified_chebyshev(nu, horizon, shift, precision)
    except np.linalg.LinAlgError as exc:
        kind = "a response vector" if shift else "a moment sequence"
        raise failure(f"not {kind}: {exc} at {precision.value} precision; "
                      f"genuine but ill-conditioned data may need more "
                      f"digits") from None
    pivot_ratios = np.sqrt((piv / np.max(piv)).astype(float))
    worst = int(np.argmin(pivot_ratios))
    if pivot_ratios[worst] < pivot_floor(precision):
        raise ConditioningError(
            f"pivot ratio {pivot_ratios[worst]:.3e} at index {worst} is below "
            f"{pivot_floor(precision):g}; use extended precision")
    return (np.sqrt((piv[1:] / piv[:-1]).astype(float)).tolist(),
            alpha.astype(float).tolist(), piv)


def _result(a_rec, b_rec, reference, horizon, path, precision) -> RecoveryResult:
    """The result with its round-trip residual: the max response deviation
    over the window 0..2(T-1)-1 where the recovered size-(T-1) system must
    match the input, in float64.  An entry beyond float64, of the input
    or of the re-simulation, makes it inf."""
    coeffs = JacobiCoefficients.from_arrays([1.0] + a_rec, b_rec)
    window = 2 * horizon - 2
    residual = 0.0
    if window:
        reference = reference[:window]
        try:
            reference = np.asarray(reference, dtype=float)
        except OverflowError:    # an exact int or Fraction
            reference = np.array([_as_float(x) for x in reference])
        with np.errstate(over="ignore", invalid="ignore"):
            simulated = response_vector(coeffs, window).as_array()
            residual = float(np.max(np.abs(simulated - reference)))
        if math.isnan(residual):    # inf - inf
            residual = math.inf
    return RecoveryResult(coefficients=coeffs, residual=residual,
                          path=path, precision=precision)


def recover_from_response(r, horizon: int,
                          precision: PrecisionMode = PrecisionMode.DOUBLE) -> RecoveryResult:
    """Coefficients from r_0..r_{2T-2}, the modified moments of the
    U_l(x/2) basis; a non-positive pivot, one of C_T, means r is the
    response of no genuine system.  Complex data raise ComplexDataError."""
    rv = sequence_values(r)
    require_real(rv, "r")
    a_rec, b_rec, _ = _recurrence(rv, horizon, 1, precision,
                                  NotAResponseVectorError)
    return _result(a_rec, b_rec, rv, horizon, "BoundaryControl", precision)


def recover_from_moments(s, horizon: int,
                         precision: PrecisionMode = PrecisionMode.DOUBLE) -> RecoveryResult:
    """Coefficients from s_0..s_{2T-2}, the power moments; a non-positive
    pivot, one of S_T, means s are the moments of no positive measure.

    The converted response entries, other data in another basis, give an
    independent recovery, and the two must agree within 1e-8.  Complex
    data raise ComplexDataError.
    """
    sv = sequence_values(s)
    require_real(sv, "s")
    a_rec, b_rec, _ = _recurrence(sv, horizon, 0, precision,
                                  NotAMomentSequenceError)
    converted = moments_to_response(sv[:2 * horizon - 1], precision).as_array()
    a_cross, b_cross, _ = _recurrence(converted, horizon, 1, precision,
                                      NotAResponseVectorError)
    with np.errstate(invalid="ignore"):    # inf - inf: a NaN gap fails
        gap = np.max(np.abs(np.array(a_rec + b_rec)
                            - np.array(a_cross + b_cross)), initial=0.0)
    if not gap <= 1e-8:
        raise JacobiBCError(
            f"moment and response recovery paths disagree by {gap:.3e}; "
            f"the data is too ill-conditioned for {precision.value} precision")
    return _result(a_rec, b_rec, converted, horizon, "Hankel", precision)
