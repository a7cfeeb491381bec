"""Connecting operators by four independent constructions.

The connecting operator is the Gram matrix of the control-to-state map:
(C f, g) = (state of f, state of g) at the fixed horizon.  Every
construction returns the corner-top filling C_T: entry (i, j), 1-based,
is sum_{k=0..min(i,j)-1} r_{|i-j|+2k}, the top-left entry is r_0, the
leading principal blocks are nested, and C_T = W_T^* W_T.  The paper's
C^T, filled from the lower right, is J C_T J for the order reversal J.

Constructions: dynamic (from a response vector), spectral (quadrature of
T_l T_m), Gram (W^*W from simulation), and Hankel (conjugation of S_T by
the Chebyshev transform).  They agree on genuine data, and the
agreement is part of the test suite, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    InsufficientDataError,
    JacobiCoefficients,
    PrecisionMode,
    SpectralData,
    _freeze_array,
    sequence_values,
)
from .dynamics import control_operator
from .moments import HankelMatrix, _transform_matrix
from .spectral import chebyshev_all
from ._multiprec import mode_of, pd_factor, require_real, sym_eigenvalues

__all__ = [
    "ConnectingMatrix",
    "ResponseValidation",
    "connecting_from_response",
    "connecting_from_spectrum",
    "gram_from_control",
    "connecting_from_hankel",
    "validate_response",
]


def _mirror_lower(mat: np.ndarray) -> np.ndarray:
    """Bitwise-symmetric copy built from the lower triangle, any dtype."""
    return np.where(np.tri(mat.shape[0], dtype=bool), mat, mat.T)


def _lower_product(x: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Lower triangle of x @ low.T for a lower-triangular ``low``, any dtype.

    Entry (i, j), i >= j, sums x[i, k] low[j, k] over the k <= j with
    low[j, k] != 0 only: at most n^3 / 6 of the n^3 terms.  Every term it
    skips is an exact zero, so object entries keep the bits of the full
    product, and in DOUBLE no skipped 0 * inf (a zero of ``low`` against
    an overflowed entry of x) puts a NaN into an entry that is finite.
    Entries above the diagonal are left for ``_mirror_lower``.
    """
    size = x.shape[0]
    out = np.zeros((size, size), dtype=np.result_type(x, low))
    for j in range(size):
        terms = np.flatnonzero(low[j, :j + 1] != 0)
        if terms.size == j + 1:     # no zero: a view, not a copy
            terms = slice(0, j + 1)
        out[j:, j] = x[j:, terms] @ low[j, terms]
    return out


@dataclass(frozen=True)
class ConnectingMatrix:
    """Symmetric corner-top connecting-operator block C_T."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _freeze_array(self, "matrix", self.matrix)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("connecting matrix must be square")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def is_positive_definite(self) -> bool:
        """Whether L diag(d) L^T factors the matrix in its own arithmetic
        (exactly for Fraction entries, whatever their size)."""
        try:
            pd_factor(self.matrix)
            return True
        except np.linalg.LinAlgError:
            return False

    def min_eigenvalue(self, precision: PrecisionMode = PrecisionMode.DOUBLE) -> float:
        return float(sym_eigenvalues(self.matrix, precision)[0])


def connecting_from_response(r, size: int) -> ConnectingMatrix:
    """C_T from the response formula; needs r_0..r_{2T-2}.

    The paper's C^T has entry (i, j), 1-based,
    sum_{k=0..T-max(i,j)} r_{|i-j|+2k}.  This returns C_T = J C^T J, with
    entry sum_{k=0..min(i,j)-1} r_{|i-j|+2k}.  Exact input entries stay
    exact.
    """
    rv = sequence_values(r)
    if size < 1:
        raise ValueError("size must be >= 1")
    if len(rv) < 2 * size - 1:
        raise InsufficientDataError(
            f"insufficient response data: need {2 * size - 1}, got {len(rv)}")
    mat = np.zeros((size, size), dtype=np.result_type(rv, float))
    rows = np.arange(size)
    with np.errstate(over="ignore", invalid="ignore"):  # users refuse inf
        for d in range(size):
            # diagonal offset d: row i (1-based) sums r_d, r_{d+2}, ...
            # up to r_{d+2(i-1)}, the cumulative sums of r_{d::2}
            diag = np.cumsum(rv[d:2 * size - d:2])
            mat[rows[:size - d], rows[d:]] = diag
            mat[rows[d:], rows[:size - d]] = diag
    return ConnectingMatrix(mat)


def connecting_from_spectrum(data: SpectralData, size: int) -> ConnectingMatrix:
    """C_T by quadrature: entry (l, m) = int T_l T_m d(rho), 1-based.

    Requires size <= number of nodes: within that horizon the finite
    system is indistinguishable from the semi-infinite one, so the
    quadrature reproduces the dynamic construction.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > data.size:
        raise ValueError(
            f"spectral construction needs size <= {data.size} nodes, got {size}")
    cheb = chebyshev_all(size, data.lambdas)          # rows T_1..T_size
    scaled = cheb * np.sqrt(data.weights)[None, :]
    return ConnectingMatrix(_mirror_lower(scaled @ scaled.T))


def gram_from_control(coeffs: JacobiCoefficients, size: int,
                      precision: PrecisionMode = PrecisionMode.DOUBLE) -> ConnectingMatrix:
    """C_T = W_T^* W_T with W_T simulated from the coefficients.

    W_T is upper triangular, so entry (i, j), i >= j, sums
    W[k, i] W[k, j] over k <= j only; the terms with k > j are exact
    zeros and are not formed.  In DOUBLE a skipped term cannot put
    0 * inf = NaN into an entry that is finite.
    """
    w = control_operator(coeffs, size, precision).matrix
    with np.errstate(over="ignore", invalid="ignore"):  # users refuse inf
        gram = _mirror_lower(_lower_product(w.T, w.T))
    return ConnectingMatrix(gram)


def connecting_from_hankel(hankel, size: int | None = None) -> ConnectingMatrix:
    """C_T by conjugating the Hankel block with the Chebyshev transform;
    exact when the Hankel entries are exact.

    The transform Lambda is lower triangular, so entry (i, j), i >= j, of
    (Lambda S) Lambda^T sums over k <= j only; the exact zeros
    Lambda[j, k], k > j, are not multiplied.  Lambda is built one row at
    a time in the number type of the Hankel entries (``_transform_matrix``),
    so a float block whose transform leaves float64 (from size 1484 on)
    raises ConditioningError.
    """
    smat = hankel.matrix if isinstance(hankel, HankelMatrix) else np.asarray(hankel)
    if size is None:
        size = smat.shape[0]
    if smat.shape[0] < size:
        raise ValueError("Hankel block smaller than the requested size")
    smat = smat[:size, :size].astype(np.result_type(smat, float))
    lam = _transform_matrix(size, mode_of(smat))
    with np.errstate(over="ignore", invalid="ignore"):  # users refuse inf
        mat = _mirror_lower(_lower_product(lam @ smat, lam))
    return ConnectingMatrix(mat)


@dataclass(frozen=True)
class ResponseValidation:
    """Positive-definiteness verdict with its eigenvalue certificate."""

    accepted: bool
    min_eigenvalue: float


def validate_response(r, size: int,
                      precision: PrecisionMode = PrecisionMode.DOUBLE) -> ResponseValidation:
    """Whether r_0..r_{2N-2} is the response of some genuine system.

    True exactly when the connecting matrix C_N is positive definite; the
    verdict and its certificate come from the same eigen-solve: the
    smallest eigenvalue must be positive.
    """
    require_real(sequence_values(r), "r")
    certificate = connecting_from_response(r, size).min_eigenvalue(precision)
    return ResponseValidation(accepted=certificate > 0,
                              min_eigenvalue=certificate)
