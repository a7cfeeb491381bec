"""Eigenvalue-sequence diagnostics for moment-problem determinacy.

Two sequences probe the limit point / limit circle dichotomy:

* lambda_N, the smallest eigenvalue of the Hankel block S_N, which tends
  to zero exactly in the determinate (limit point) case and is bounded
  below in the indeterminate case by the reciprocal of the unit-circle
  average of 1 / sum_k |p_k(z)|^2;
* beta_T, the smallest eigenvalue of the corner-top connecting block
  C_T, monotone non-increasing, and bounded below in the limit-circle
  case by the reciprocal of the Chebyshev-weighted integral of
  sum_k |p_k(x)|^2 over (-1, 1).

``classify`` also reads gamma_T, the largest eigenvalue of C_T, which
it takes as a sign of the limit-point case when it stabilizes.

``classify`` takes coefficients and reads all three sequences off them:
S_N and C_T are Gram matrices of the spectral measure in the bases x^l
and U_l(x/2), whose orthonormal-polynomial tables follow from a_n and
b_n by the three-term recurrence, and gamma_T = ||W_T||^2 for the
simulated control operator, since C_T = W_T^T W_T.  No response, moment
or Gram matrix is formed, so DOUBLE needs no noise floor and stays
finite where the moments would overflow; it agrees with EXTENDED.  Data
input (a response or moments) takes ``connecting_eig_sequences`` and
``moments.hankel_min_eigs``.  The circle bounds sum |p_n(z)|^2 over their
quadrature nodes as the recurrence yields each p_n and keep only the
last partial sums the truncation rule reads, so no depth x nodes table
of polynomial values is formed.

The beta criterion is one-directional only: the free coefficients are
limit point yet keep beta_T = 1, so no verdict here ever rests on
beta_T alone.  All finite-depth verdicts are heuristic; the thresholds
are artifact policy, documented and tunable, not mathematical content.

Convention note on the beta bound: the propagation polynomials T_k of
this package are orthogonal on (-2, 2) against sqrt(4 - x^2) dx / (2 pi)
and are not normalized by the (-1, 1) Chebyshev weight the bound
integrates against, so sum |f_k|^2 and the weighted norm of sum f_k T_k
differ by a bounded factor.  The bound is implemented with the (-1, 1)
weight as stated (it is a trace bound and holds with slack, which the
acceptance suite checks numerically); both conventions are recorded
here rather than silently reconciled.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .core import (
    JacobiBCError,
    JacobiCoefficients,
    NotLimitCircleError,
    PrecisionMode,
    sequence_values,
)
from .connecting import connecting_from_response
from .dynamics import solve_finite
from .spectral import (TAIL_WINDOW, _recurrence, eval_p_all, eval_q_all,
                       relative_tail)
from ._multiprec import (gram_max_eigs, leading_eig_extremes, noise_floor,
                         orthonormal_min_eigs, require_real)

__all__ = [
    "Verdict",
    "DeterminacyReport",
    "CircleBoundEstimate",
    "connecting_eig_sequences",
    "deficiency_partial_sums",
    "circle_bound_hankel",
    "circle_bound_connecting",
    "classify",
]

# Eigenvalue-sequence monotonicity is asserted up to this absolute slack
# plus the eigensolver noise floor of the active precision.
_MONOTONE_SLACK = 1e-12

DEFICIENCY_DEPTH, TAIL_TOL, EPS_DET = 60, 1e-10, 1e-8     # classify's policy
CIRCLE_NODES, GAUSS_CHEBYSHEV_NODES = 2048, 256     # of the circle bounds


class Verdict(Enum):
    LIKELY_DETERMINATE = "LikelyDeterminate"
    LIKELY_INDETERMINATE = "LikelyIndeterminate"
    INCONCLUSIVE = "Inconclusive"


def connecting_eig_sequences(r, t_max: int,
                             precision: PrecisionMode = PrecisionMode.DOUBLE):
    """(beta_T, gamma_T) = (min eig(C_T), max eig(C_T)) for T = 1..t_max.

    One recurrence on r gives beta and one build of C_{t_max} gives
    gamma for every nested block (see ``leading_eig_extremes``); asserts
    beta non-increasing and gamma non-decreasing (the corner-top blocks
    are nested, so eigenvalues interlace) up to the noise floor.
    """
    rv = sequence_values(r)
    require_real(rv, "r")
    # corner-top blocks are nested, so one build serves every horizon
    beta, gamma = leading_eig_extremes(
        connecting_from_response(r, t_max).matrix, rv, 1, precision)
    norms = np.maximum(np.abs(beta), np.abs(gamma))
    slack = _MONOTONE_SLACK + noise_floor(norms[1:], precision)
    # compared without subtracting, so an overflowed gamma passes after
    # an overflowed one and fails after a finite one
    for name, hi, lo in (("beta", beta[1:], beta[:-1]),
                         ("gamma", gamma[:-1], gamma[1:])):
        bad = np.flatnonzero(hi > lo + slack)
        if bad.size:
            t = bad[0]
            raise JacobiBCError(
                f"{name} sequence violates monotonicity at T={t + 2} by "
                f"{hi[t] - lo[t]:.3e} (slack {slack[t]:.3e})")
    return beta, gamma


def deficiency_partial_sums(coeffs: JacobiCoefficients, depth: int,
                            z: complex = 1j):
    """Partial sums of |p_n(z)|^2 and |q_n(z)|^2 up to ``depth``.

    Square-summability at one non-real point decides the deficiency
    dichotomy; z = i is the canonical choice.  A term beyond float64
    counts as inf, so a sum that overflows is inf from there on: the
    series diverges as far as float64 can tell.
    """
    p = eval_p_all(coeffs, depth, complex(z))
    q = eval_q_all(coeffs, depth, complex(z))
    return (np.cumsum([_squared_modulus(v) for v in p]),
            np.cumsum([_squared_modulus(v) for v in q]))


def _squared_modulus(v) -> float:
    """|v|^2, or inf where it is beyond float64; an overflowed recurrence
    leaves inf or nan in v, an overflowed square raises."""
    try:
        square = abs(v) ** 2
    except OverflowError:
        return math.inf
    return square if math.isfinite(square) else math.inf


@dataclass(frozen=True)
class CircleBoundEstimate:
    """Lower-bound value with the truncation evidence behind it."""

    value: float
    tail_estimate: float
    truncation: int

    def __float__(self):
        return self.value


def _partial_square_sums(coeffs, truncation, nodes):
    """Final sums over n <= truncation of |p_n(z)|^2 on the given nodes,
    plus the worst relative last-window contribution; raises when a sum
    overflows float64 or the tail is not decreasing (the series only
    converges everywhere in the limit-circle regime).

    The sums are accumulated while the recurrence runs over the nodes,
    one p_n at a time, and only the last 2 TAIL_WINDOW + 1 partial sums
    that ``relative_tail`` reads are kept: no truncation x nodes table.
    """
    last = deque(maxlen=2 * TAIL_WINDOW + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in islice(_recurrence(coeffs, np.asarray(nodes), "p"),
                        truncation):
            term = np.abs(p) ** 2
            last.append(last[-1] + term if last else term)
    sums = list(last)
    overflowed = np.count_nonzero(~np.isfinite(sums[-1]))
    if overflowed:
        raise NotLimitCircleError(
            "not limit circle: sum_n |p_n(z)|^2 overflows float64 at "
            f"{overflowed} of {len(nodes)} quadrature nodes")
    if truncation <= 2 * TAIL_WINDOW:
        return sums[-1], float("nan")
    rel = relative_tail(sums)
    prev = relative_tail(sums[:-TAIL_WINDOW], sums[-1])
    growing = (rel >= prev) & (rel > 1e-12)
    if np.any(growing):
        raise NotLimitCircleError(
            "not limit circle: sum_n |p_n(z)|^2 has a non-decreasing "
            f"tail at {int(np.count_nonzero(growing))} of {len(nodes)} "
            "quadrature nodes")
    return sums[-1], float(np.max(rel))


def circle_bound_hankel(coeffs: JacobiCoefficients,
                        truncation: int) -> CircleBoundEstimate:
    """Limit-circle lower bound for lim lambda_N.

    Averages sum_{n<=K} |p_n(e^{i theta})|^2 over the unit circle with
    the trapezoid rule (periodic integrand, spectral accuracy) and
    returns the reciprocal: the trace of S_N^{-1} in the orthonormal
    basis is the circle average of the squared polynomial mass, by
    coefficient Parseval, which caps 1 / lambda_N.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    thetas = 2 * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES
    nodes = np.exp(1j * thetas)
    sums, tail = _partial_square_sums(coeffs, truncation, nodes)
    return CircleBoundEstimate(value=1.0 / float(np.mean(sums)),
                               tail_estimate=tail, truncation=truncation)


def circle_bound_connecting(coeffs: JacobiCoefficients,
                            truncation: int) -> CircleBoundEstimate:
    """Limit-circle lower bound for lim beta_T.

    Integrates sum_{n<=K} |p_n(x)|^2 against dx / sqrt(1 - x^2) over
    (-1, 1) by Gauss-Chebyshev quadrature and returns the reciprocal.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    nodes = GAUSS_CHEBYSHEV_NODES
    x = np.cos((2 * np.arange(1, nodes + 1) - 1) * np.pi / (2 * nodes))
    sums, tail = _partial_square_sums(coeffs, truncation, x)
    integral = float(np.pi / nodes * np.sum(sums))
    return CircleBoundEstimate(value=1.0 / integral, tail_estimate=tail,
                               truncation=truncation)


@dataclass(frozen=True)
class DeterminacyReport:
    """All determinacy evidence for one coefficient family."""

    lambda_seq: np.ndarray
    beta_seq: np.ndarray
    gamma_seq: np.ndarray
    hankel_bound: float | None
    connecting_bound: float | None
    deficiency_p: np.ndarray
    deficiency_q: np.ndarray
    verdict: Verdict
    precision: PrecisionMode
    notes: tuple


def classify(coeffs: JacobiCoefficients, n_max: int,
             precision: PrecisionMode = PrecisionMode.DOUBLE) -> DeterminacyReport:
    """Assemble all determinacy evidence and a heuristic verdict.

    Policy (artifact thresholds, the module constants):

    * LikelyIndeterminate when both deficiency sums converge (their
      ``spectral.relative_tail`` is at most TAIL_TOL) and lambda_{n_max}
      stays above EPS_DET;
    * LikelyDeterminate when some lambda_N falls below EPS_DET, or
      gamma_T stabilizes to a bounded value;
    * Inconclusive otherwise, and always for n_max < 4.

    lambda_N and beta_T come from ``orthonormal_min_eigs`` on a_0..a_{N-1}
    and b_1..b_{N-1}, gamma_T from ``gram_max_eigs`` on the impulse field
    W_T; in DOUBLE a block past an overflowed entry gives lambda = beta
    = 0.0 and gamma = inf.  A finite family of size n has an n-atom
    measure, so lambda_N = beta_N = 0.0 for N > n, and its W_T has n
    rows.  beta_T never decides a verdict by itself: its lower bound
    holds in the limit-circle case but the converse fails (free
    coefficients keep beta_T = 1).  The deficiency sums and circle
    bounds run to DEFICIENCY_DEPTH, or to the size of a finite family
    when that is smaller; they run in float64 in every mode, and a
    coefficient beyond its range raises ConditioningError, and a complex
    one ComplexDataError.
    """
    notes = []
    # a finite family of size n holds a_0..a_{n-1} and b_1..b_n only
    size = min(n_max, coeffs.size) if coeffs.is_finite else n_max
    # a finite family holds p_n and q_n for n <= its size only
    depth = min(DEFICIENCY_DEPTH, coeffs.size or DEFICIENCY_DEPTH)
    # every coefficient read below
    require_real(coeffs.a_head(max(size, depth)), "a")
    require_real(coeffs.b_head(max(size, depth)), "b", 1)
    # C_T = W_T^T W_T for the control-to-state map W_T, the rows 1..size
    # and times 1..n_max of the impulse field
    field = solve_finite(coeffs, size, [1], n_max, precision)
    gamma_seq = gram_max_eigs(field.values[1:, 2:], precision)
    a, b = coeffs.a_head(size), coeffs.b_head(size - 1)
    lambda_seq, beta_seq = np.zeros(n_max), np.zeros(n_max)
    lambda_seq[:size] = orthonormal_min_eigs(a, b, 0, precision)
    beta_seq[:size] = orthonormal_min_eigs(a, b, 1, precision)

    deficiency_p, deficiency_q = deficiency_partial_sums(coeffs, depth)
    # an overflowed sum (inf) diverges
    deficiency_converged = (math.isfinite(deficiency_p[-1])
                            and math.isfinite(deficiency_q[-1])
                            and relative_tail(deficiency_p) <= TAIL_TOL
                            and relative_tail(deficiency_q) <= TAIL_TOL)

    hankel_bound = connecting_bound = None
    try:
        hankel_bound = float(circle_bound_hankel(coeffs, depth))
        connecting_bound = float(circle_bound_connecting(coeffs, depth))
    except NotLimitCircleError as exc:
        notes.append(f"limit-circle bounds unavailable: {exc}")

    lambda_decays = bool(np.min(lambda_seq) < EPS_DET)
    if gamma_seq.size >= 4:
        g_last, g_prev = gamma_seq[-1], gamma_seq[-4]
        # a gamma beyond float64 is not bounded; a finite last one has
        # finite predecessors, since the sequence is non-decreasing
        gamma_bounded = bool(np.isfinite(g_last) and abs(g_last - g_prev)
                             <= 1e-6 * max(1.0, abs(g_last)))
    else:
        gamma_bounded = False
    lambda_stays_up = bool(lambda_seq[-1] > EPS_DET)

    determinate = lambda_decays or gamma_bounded
    indeterminate = deficiency_converged and lambda_stays_up

    if n_max < 4:
        verdict = Verdict.INCONCLUSIVE
        notes.append("insufficient horizon: n_max < 4")
    elif determinate and not indeterminate:
        verdict = Verdict.LIKELY_DETERMINATE
    elif indeterminate and not determinate:
        verdict = Verdict.LIKELY_INDETERMINATE
    else:
        verdict = Verdict.INCONCLUSIVE
        if determinate and indeterminate:
            notes.append("conflicting signals; raise n_max or precision")

    return DeterminacyReport(
        lambda_seq=lambda_seq, beta_seq=beta_seq, gamma_seq=gamma_seq,
        hankel_bound=hankel_bound, connecting_bound=connecting_bound,
        deficiency_p=deficiency_p, deficiency_q=deficiency_q,
        verdict=verdict, precision=precision, notes=tuple(notes))
