"""Orthogonal polynomials, spectral data of A^N, and discrete quadrature.

Two polynomial families solve the three-term recurrence

    a_n phi_{n+1} + a_{n-1} phi_{n-1} + b_n phi_n = z phi_n,  n >= 1:

the first kind p with p_1 = 1, p_2 = (z - b_1)/a_1 (degree n - 1) and
the second kind q with q_1 = 0, q_2 = 1/a_1 (degree n - 2).  The
propagation polynomials T_t obey T_{t+1} = z T_t - T_{t-1} with T_0 = 0,
T_1 = 1; they are the second-kind Chebyshev polynomials rescaled to the
interval (-2, 2), i.e. T_t(z) = U_{t-1}(z/2).

Evaluation is always by forward recurrence, in one lazy generator for p
and q and in ``chebyshev_all`` for T_t.  Monomial coefficient lists of
p_n and q_n are ill-conditioned, and no polynomial value is computed
from them.  The one place that forms such lists is ``_multiprec``: the
table of orthonormal p_n in the basis x^l (or U_l(x/2)) is the inverse
factor of S_N (or C_T), and only its norms are read, as smallest
eigenvalues.
``relative_tail`` is the one truncation rule of every series the package
sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .core import (
    ConditioningError,
    JacobiBCError,
    JacobiCoefficients,
    PrecisionMode,
    SpectralData,
    _read_control,
    materialize_matrix,
)
from .dynamics import WaveField, _lift_control
from ._multiprec import _enter

__all__ = [
    "eval_chebyshev",
    "eval_p_all",
    "eval_q_all",
    "chebyshev_all",
    "spectral_data",
    "quadrature",
    "solution_via_spectrum",
    "fourier_image",
    "extension_parameter",
    "ExtensionParameterEstimate",
    "relative_tail",
]

# Terms in the trailing window of the truncation rule.
TAIL_WINDOW = 5

EXTENSION_RTOL = EXTENSION_TAIL_TOL = 1e-10     # of extension_parameter


def _one_like(z):
    return np.ones_like(z) if isinstance(z, np.ndarray) else 0 * z + 1


def _zero_like(z):
    return np.zeros_like(z) if isinstance(z, np.ndarray) else 0 * z


_BEYOND_FLOAT64 = ("coefficient {}_{} is beyond the float64 range (about "
                   "1.8e308) of p_n(z) and q_n(z) in every precision mode")


def _recurrence(coeffs, z, kind):
    """phi_1(z), phi_2(z), ... of the first (kind "p") or second (kind
    "q") family, lazily: phi_{n+1} reads a_n and b_n only when requested
    (phi_2 reads a_0 first), so a size-N finite family yields phi_1..phi_N.

    Both start from phi_0: p_0 = 0 and, under a_0 = 1, q_0 = -1, which
    gives q_2 = 1/a_1 from the same update.  z is a scalar or an ndarray.
    Each coefficient enters DOUBLE by ``_multiprec._enter`` as it is read,
    so the polynomial routes compute in float64 (complex128 for complex z)
    in every mode, and the same numbers give the same bits however they
    are spelled; ConditioningError names one beyond float64, inf or NaN.
    """
    def entered(x, name, n):    # x - x is NaN, not 0, for inf or NaN
        x = _enter(x, PrecisionMode.DOUBLE, _BEYOND_FLOAT64, name, n)
        if x - x != 0:
            raise ConditioningError(f"coefficient {name}_{n} is {x}, which "
                                    "p_n(z) and q_n(z) cannot use")
        return x
    zero, one = _zero_like(z), _one_like(z)
    prev, cur = (zero, one) if kind == "p" else (-one, zero)
    yield cur
    a_prev = entered(coeffs.a(0), "a", 0)
    for n in count(1):
        a_n, b_n = entered(coeffs.a(n), "a", n), entered(coeffs.b(n), "b", n)
        prev, cur = cur, ((z - b_n) * cur - a_prev * prev) / a_n
        a_prev = a_n    # a_{n-1} of the next step
        yield cur


def _first_values(coeffs, n_max, z, kind):
    if n_max < 1:
        raise ValueError("the polynomial index starts at 1")
    vals = list(islice(_recurrence(coeffs, z, kind), n_max))
    return np.asarray(vals) if isinstance(z, np.ndarray) else vals


def eval_p_all(coeffs: JacobiCoefficients, n_max: int, z):
    """[p_1(z), ..., p_{n_max}(z)] by forward recurrence."""
    return _first_values(coeffs, n_max, z, "p")


def eval_q_all(coeffs: JacobiCoefficients, n_max: int, z):
    """[q_1(z), ..., q_{n_max}(z)] by forward recurrence."""
    return _first_values(coeffs, n_max, z, "q")


def eval_chebyshev(t: int, z):
    """T_t(z) with T_0 = 0, T_1 = 1, T_{t+1} = z T_t - T_{t-1}.

    Integer z keeps the value exact (no divisions are involved).
    """
    if t < 0:
        raise ValueError("the index must be >= 0")
    return chebyshev_all(t, z)[-1] if t else _zero_like(z)


def chebyshev_all(t_max: int, z):
    """[T_1(z), ..., T_{t_max}(z)]."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    out = [_one_like(z)]
    prev = _zero_like(z)
    for _ in range(t_max - 1):
        prev, out_last = out[-1], z * out[-1] - prev
        out.append(out_last)
    return np.asarray(out) if isinstance(z, np.ndarray) else out


def relative_tail(partial_sums, total=None):
    """The truncation rule of every series the package sums.

    From the partial sums S of a series of magnitudes: its last
    TAIL_WINDOW terms, S_n - S_{n-TAIL_WINDOW} (all of S_n while there
    are no more terms than that), over |total|, which defaults to S_n.
    The series has converged once this is at most its tolerance.  An
    array of partial sums holds one series per column.
    """
    last = partial_sums[-1]
    window = (last - partial_sums[-1 - TAIL_WINDOW]
              if len(partial_sums) > TAIL_WINDOW else last)
    return window / np.maximum(np.abs(last if total is None else total), 1e-300)


def spectral_data(coeffs: JacobiCoefficients, size: int) -> SpectralData:
    """Eigenvalues of A^N with weights w_k = 1/rho_k.

    Weights come from the squared first components of the normalized
    eigenvectors, which equals 1/sum_i p_i(lambda_k)^2 and is numerically
    stabler than root-finding on p_{N+1}.  The eigenvectors are numpy's
    ``eigh`` of the dense tridiagonal A^N, O(N^3): this is the library's
    cross-representation check, and no command calls it.  An eigenvector
    localized far from site 1 can have a first component below about
    1.5e-162, whose square underflows to 0; the measure then has no
    float64 weight there, and ConditioningError names the first such
    eigenvalue.  The block is ``materialize_matrix`` in DOUBLE, which
    refuses a complex coefficient and one beyond float64.
    """
    block = materialize_matrix(coeffs, size)
    try:
        lam, vec = np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:
        raise JacobiBCError(f"tridiagonal eigensolver failed: {exc}") from exc
    weights = vec[0, :] ** 2
    if not weights.all():
        k = int(np.argmin(weights))
        raise ConditioningError(
            f"the weight of eigenvalue {k + 1} of {size}, lambda = "
            f"{float(lam[k])!r}, squares to 0 in double precision: its "
            f"first eigenvector component, {vec[0, k]:.3g}, is below about "
            "1.5e-162; use a smaller size")
    return SpectralData(lambdas=lam, weights=weights)


def quadrature(data: SpectralData, integrand) -> complex:
    """sum_k w_k f(lambda_k); exact for polynomials of degree <= 2N - 1."""
    total = 0
    for lam, w in zip(data.lambdas, data.weights):
        total = total + w * integrand(lam)
    return total


def solution_via_spectrum(coeffs: JacobiCoefficients, size: int, control,
                          horizon: int | None = None) -> WaveField:
    """Field of the size-N system assembled from its spectral data.

    v_{n,t} = sum_k w_k [sum_{j=1..t} T_j(lambda_k) f_{t-j}] p_n(lambda_k);
    a cross-representation check against the time-stepping solver.  The
    control is read as ``solve_finite`` reads it.
    """
    horizon, f = _read_control(control, horizon)
    f = _lift_control(f, horizon, PrecisionMode.DOUBLE)
    data = spectral_data(coeffs, size)
    nodes = data.lambdas
    cheb = chebyshev_all(horizon, nodes)          # (horizon, K): rows T_1..T_horizon
    pvals = eval_p_all(coeffs, size, nodes)       # (size, K)
    conv = np.zeros((horizon + 1, nodes.size), dtype=np.result_type(f, float))
    for t in range(1, horizon + 1):
        # sum_{j=1..t} T_j(lam) f_{t-j}
        conv[t] = np.tensordot(f[t - 1::-1], cheb[:t], axes=(0, 0))
    inner = pvals @ (data.weights[None, :] * conv).T    # (size, horizon+1)
    values = np.zeros((size + 1, horizon + 2), dtype=inner.dtype)
    values[0, 1:horizon + 1] = f
    values[1:, 1:] = inner
    return WaveField(values=values, n_space=size, horizon=horizon)


def fourier_image(control, z):
    """Image sum_{k=1..T} T_k(z) f_{T-k} of the state driven by ``control``.

    This is the degree < T polynomial the state at time T transforms to;
    z may be a scalar or an ndarray; the control is read as the solvers
    read it.
    """
    horizon, f = _read_control(control)
    if horizon < 1:
        raise ValueError("control must have at least one entry")
    cheb = chebyshev_all(horizon, z)
    total = _zero_like(z)
    for k in range(1, horizon + 1):
        total = total + cheb[k - 1] * f[horizon - k]
    return total


@dataclass(frozen=True)
class ExtensionParameterEstimate:
    """Numerical limit of -q_n(0)/p_n(0) with its convergence evidence.

    ``value`` is None whenever the flag is raised: either the usable
    ratio subsequence does not stabilize, or the tails of sum p_n(0)^2
    and sum q_n(0)^2 keep growing, in which case the limit that the
    self-adjoint-extension parameter is defined by does not exist
    numerically.  ``candidate`` always reports the last usable ratio.
    """

    value: float | None
    candidate: float
    converged: bool
    summable: bool
    last_delta: float
    skipped: tuple
    message: str


def extension_parameter(coeffs: JacobiCoefficients,
                        n_max: int) -> ExtensionParameterEstimate:
    """Estimate h = -lim q_n(0)/p_n(0) along indices with p_n(0) != 0.

    Indices where p_n(0) vanishes are skipped and reported.  The limit
    only exists in the limit-circle regime, where p(0) and q(0) are
    square-summable; the flag is raised when the tail sums keep growing
    (e.g. the free coefficients, where the skipped/parity structure makes
    the raw ratio trivially constant) or when the ratios oscillate.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    p = [float(v) for v in eval_p_all(coeffs, n_max, 0.0)]
    q = [float(v) for v in eval_q_all(coeffs, n_max, 0.0)]

    skipped, ratios = [], []
    for n in range(1, n_max + 1):
        pn = p[n - 1]
        if pn == 0.0 or abs(pn) < 1e-280:
            skipped.append(n)
            continue
        ratios.append((n, -q[n - 1] / pn))

    summable = bool(relative_tail(np.cumsum(np.square(p) + np.square(q)))
                    <= EXTENSION_TAIL_TOL)

    candidate = ratios[-1][1]
    if len(ratios) >= 2:
        last_delta = abs(ratios[-1][1] - ratios[-2][1])
        converged = last_delta <= EXTENSION_RTOL * max(1.0, abs(candidate))
    else:
        last_delta = float("inf")
        converged = False

    if converged and summable:
        return ExtensionParameterEstimate(
            value=candidate, candidate=candidate, converged=True, summable=True,
            last_delta=last_delta, skipped=tuple(skipped),
            message=f"converged with |h_N - h_prev| = {last_delta:.3e}")
    if not summable:
        message = ("no numerical limit: sum p_n(0)^2 + q_n(0)^2 does not "
                   "converge, so the extension parameter is undefined "
                   "(limit point suspected)")
    else:
        message = f"no numerical limit: ratios still move by {last_delta:.3e}"
    return ExtensionParameterEstimate(
        value=None, candidate=candidate, converged=converged, summable=summable,
        last_delta=last_delta, skipped=tuple(skipped), message=message)
