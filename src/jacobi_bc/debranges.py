"""Krein solvers, reproducing kernels, and the Hermite-Biehler function.

The space of states reachable at a fixed horizon T, pushed through the
Fourier transform, is the polynomials of degree < T with the scalar
product [F, G] = (C_T f, g) on the T_k-coefficients.  Solving

    C_T j = conj(T_1(z), ..., T_T(z))

produces the coefficient vector of the reproducing kernel at z: the
kernel evaluates as sum_k T_k(lam) j_k, and independently as the
polynomial sum over the first-kind family, sum_n conj(p_n(z)) p_n(lam).
Both backends are implemented and their agreement is a test, not an
assumption.

Two routes solve the Krein equation.  Data input (``krein_solve`` on a
block from any ``connecting`` construction, all of which return C_T, or
``krein_solve_hankel`` on S_T) has the matrix, factors it and refines; a
block that is not positive definite is not genuine data.  Coefficient
input (``kernel_finite(method="krein")``) never forms C_T = W_T^T W_T:
it simulates W_T, upper triangular with the positive diagonal
a_0 ... a_k, and runs the two O(T^2) triangular sweeps
W_T^T y = rhs, W_T j = y, with the residual W_T^T (W_T j) - rhs, W_T j
coming from the second sweep.  In the object modes W_T reaches the solve
as the sweep's integer columns, with no cell made.  This solves at
cond(W_T) = sqrt(cond(C_T)) and runs only the forward solver, so the
direct sum stays an independent oracle.

In the limit-circle regime the polynomial sum converges as T grows,
giving the infinite kernel; the Hermite-Biehler function is assembled
from the kernel at z = i, summed by the direct backend of
``kernel_finite``.

The closed-form kernel built from E by the standard de Branges formula
uses a 1/pi-weighted scalar product whose normalization differs from
the coefficient-space product here; the tests measure the constant
between the two kernel routes, and neither route absorbs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    JacobiCoefficients,
    NotAMomentSequenceError,
    NotAResponseVectorError,
    NotLimitCircleError,
    PrecisionMode,
    _freeze_array,
    block_values,
    sequence_values,
)
from .dynamics import _gram_upper
from .spectral import _recurrence, chebyshev_all, eval_p_all, relative_tail
from ._multiprec import (_point, dot, gram_solve, lift, mode_of,
                         mp_pd_solve, solve_scalar)

__all__ = [
    "KreinSolution",
    "InfiniteKernelValue",
    "HermiteBiehlerFunction",
    "krein_solve",
    "krein_solve_hankel",
    "kernel_finite",
    "kernel_infinite",
    "scalar_product",
    "hermite_biehler",
    "kernel_from_E",
]

SINGULAR_TOL, DIFFERENCE_STEP = 1e-8, 1e-5    # of kernel_from_E


@dataclass(frozen=True)
class KreinSolution:
    """Coefficients j with C_T j = conj(T_1(z), ..., T_T(z)).

    Double-precision solves store complex128 entries; extended solves
    keep multiprecision entries (object dtype), since the identities the
    solution feeds cancel catastrophically once rounded.  Convert with
    ``values.astype(complex)`` when float64 suffices.  ``kernel_value``
    evaluates the T_k in the arithmetic of ``values``.
    """

    values: np.ndarray
    z: complex
    horizon: int
    residual: float

    def __post_init__(self):
        _freeze_array(self, "values", self.values,
                      np.result_type(np.asarray(self.values), complex))

    def kernel_value(self, lam) -> complex:
        """Reproducing kernel J_z(lam) = sum_k T_k(lam) j_k, summed by
        ``_multiprec.dot``: in the object modes the sum is exact and
        rounded once before its rounding to complex."""
        if isinstance(lam, np.ndarray):
            return np.array([self.kernel_value(v) for v in lam])
        cheb = chebyshev_all(self.horizon, _point(lam, mode_of(self.values)))
        return complex(dot(self.values, np.array(cheb)))


def _krein_rhs(horizon: int, z, precision: PrecisionMode) -> np.ndarray:
    """conj(T_1(z), ..., T_T(z)) in the arithmetic of the solve."""
    return np.conj(np.array(chebyshev_all(horizon, solve_scalar(z, precision))))


def _block_solve(block, rhs, precision: PrecisionMode, refusal):
    """(x, residual, T) of ``mp_pd_solve`` on the T x T ``block`` (read
    by ``block_values``), lifted to ``precision``, against rhs(T); a block
    that is not positive definite raises the error ``refusal``."""
    mat = block_values(block)
    try:
        return (*mp_pd_solve(lift(mat, precision), rhs(mat.shape[0])),
                mat.shape[0])
    except np.linalg.LinAlgError as exc:
        raise refusal from exc


def krein_solve(connecting, z: complex,
                precision: PrecisionMode = PrecisionMode.DOUBLE) -> KreinSolution:
    """Solve C_T j = conj(T_1(z), ..., T_T(z)) for a connecting block.

    Positive definiteness of the block is exactly the characterization of
    genuine response data, so a factorization failure raises
    NotAResponseVectorError.  The solution is refined until the relative
    residual is below 1e-10 (ConditioningError when that stalls); badly
    conditioned blocks can go through extended precision instead.
    """
    x, residual, horizon = _block_solve(
        connecting, lambda t: _krein_rhs(t, z, precision), precision,
        NotAResponseVectorError(
            "connecting matrix is not positive definite, so the data does "
            "not come from a genuine response vector"))
    return KreinSolution(values=x, z=complex(z), horizon=horizon,
                         residual=residual)


def krein_solve_hankel(hankel, z: complex,
                       precision: PrecisionMode = PrecisionMode.DOUBLE) -> np.ndarray:
    """Solve S_T f = conj(1, z, ..., z^{T-1}).

    The solution is the monomial-coefficient form of the reproducing
    kernel and relates to the connecting-side solution by f =
    transform^T j (tested, not assumed).
    """
    return _block_solve(
        hankel, lambda t: np.conj(solve_scalar(z, precision) ** np.arange(t)),
        precision, NotAMomentSequenceError(
            "Hankel matrix is not positive definite, so the data are not "
            "the moments of a positive measure"))[0]


def kernel_finite(source, z: complex, lam, horizon: int | None = None,
                  method: str = "direct",
                  precision: PrecisionMode = PrecisionMode.DOUBLE) -> complex:
    """Reproducing kernel J_z(lam) of the horizon-T polynomial space.

    ``source`` is either coefficients or a connecting block C_T, as a
    ConnectingMatrix or an array (always ``krein_solve``, which factors
    the block).  For coefficients, method "direct" sums
    conj(p_n(z)) p_n(lam), and method "krein" solves the Krein equation
    on the simulated W_T by two triangular sweeps without forming C_T
    (``_multiprec.gram_solve``).  The two backends agree on genuine data.
    Both raise ComplexDataError at the first complex coefficient they
    read.  W_T's diagonal is positive by construction, so the
    coefficient route never raises NotAResponseVectorError; a W_T too
    ill-conditioned for the precision raises ConditioningError when the
    refined residual stays above 1e-10.
    """
    if not isinstance(source, JacobiCoefficients):
        return krein_solve(source, z, precision).kernel_value(lam)
    if horizon is None:
        raise ValueError("horizon is required with coefficient input")
    if method == "direct":
        p_z = eval_p_all(source, horizon, complex(z))
        p_l = eval_p_all(source, horizon, lam)
        total = 0
        for n in range(horizon):
            total = total + np.conj(p_z[n]) * p_l[n]
        return total
    if method == "krein":
        x, residual = gram_solve(_gram_upper(source, horizon, precision),
                                 _krein_rhs(horizon, z, precision))
        return KreinSolution(values=x, z=complex(z), horizon=horizon,
                             residual=residual).kernel_value(lam)
    raise ValueError(f"unknown kernel backend {method!r}")


@dataclass(frozen=True)
class InfiniteKernelValue:
    """Converged value of sum_n conj(p_n(z)) p_n(lam) with its truncation."""

    value: complex
    order: int
    tail: float


def kernel_infinite(coeffs: JacobiCoefficients, z: complex, lam: complex,
                    tol: float = 1e-12, n_cap: int = 10000) -> InfiniteKernelValue:
    """Partial sums of the infinite kernel until their tail, by
    ``spectral.relative_tail`` on the term magnitudes against |sum|,
    drops below ``tol``.

    The series converges locally uniformly exactly in the limit-circle
    regime; hitting the cap raises NotLimitCircleError.  A complex
    coefficient among those read raises ComplexDataError.
    """
    total, sizes = 0j, []
    terms = zip(_recurrence(coeffs, complex(z), "p"),
                _recurrence(coeffs, complex(lam), "p"))
    for n, (pz, pl) in enumerate(terms, 1):
        term = np.conj(pz) * pl
        total += term
        sizes.append(abs(term) + (sizes[-1] if sizes else 0.0))
        tail = relative_tail(sizes, total)
        if tail <= tol:
            return InfiniteKernelValue(value=complex(total), order=n,
                                       tail=float(tail))
        if n >= n_cap:
            raise NotLimitCircleError(
                f"series not converging after {n_cap} terms: likely limit point")


def scalar_product(f, g, connecting) -> complex:
    """[F, G] = (C_T f, g) for F = sum T_k f_k, G = sum T_k g_k.

    Conjugate-linear in f, linear in g; equals the integral of conj(F) G
    against the spectral measure of the size-T block.  Object-dtype
    blocks (extended/rational constructions) are combined in their own
    arithmetic.
    """
    mat = block_values(connecting)
    fv, gv = (v.astype(np.result_type(v, complex))
              for v in map(sequence_values, (f, g)))
    if fv.shape != gv.shape or fv.ndim != 1 or fv.size != mat.shape[0]:
        raise ValueError("coefficient vectors must match the block size")
    return complex(np.vdot(mat @ fv, gv))


@dataclass(frozen=True)
class HermiteBiehlerFunction:
    """E_T(z) = sqrt(pi) (1 - iz) J_i(z) / sqrt(J_i(i)).

    J_i is the finite kernel at z = i and J_i(i) = sum_n |p_n(i)|^2 > 0
    is its squared norm by the reproducing identity (exact and cheap, no
    quadrature).  Entire by construction; |E(z)| > |E(conj z)| on the
    open upper half-plane, which the tests sample.
    """

    coeffs: JacobiCoefficients
    horizon: int
    norm_sq: float

    def __call__(self, z):
        val = (np.sqrt(np.pi) * (1 - 1j * np.asarray(z))
               * kernel_finite(self.coeffs, 1j, z, self.horizon)
               / np.sqrt(self.norm_sq))
        return complex(val) if np.ndim(z) == 0 else val


def hermite_biehler(coeffs: JacobiCoefficients, horizon: int) -> HermiteBiehlerFunction:
    """Hermite-Biehler function of the horizon-T reachable space."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    p_i = np.asarray(eval_p_all(coeffs, horizon, 1j), dtype=complex)
    return HermiteBiehlerFunction(coeffs=coeffs, horizon=horizon,
                                  norm_sq=float(np.sum(np.abs(p_i) ** 2)))


def kernel_from_E(E, z: complex, xi: complex) -> complex:
    """Kernel from the Hermite-Biehler function,

        (conj(E(z)) E(xi) - E(conj z) conj(E(conj xi))) / (2i (conj z - xi)).

    Diagnostic cross-check against kernel_finite; their ratio is a
    normalization constant that is measured, not asserted.  The
    singularity at xi = conj(z) is removable and handled by a symmetric
    difference quotient of the numerator.
    """
    z = complex(z)
    xi = complex(xi)

    def numerator(x):
        return (np.conj(E(z)) * E(x)
                - E(np.conj(z)) * np.conj(E(np.conj(x))))

    denom = np.conj(z) - xi
    if abs(denom) < SINGULAR_TOL:
        step = DIFFERENCE_STEP
        deriv = (numerator(xi + step) - numerator(xi - step)) / (2 * step)
        return complex(0.5j * deriv)
    return complex(numerator(xi) / (2j * denom))

