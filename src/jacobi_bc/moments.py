"""Hankel matrices and the exact transform between responses and moments.

The monomial coefficients of the propagation polynomials T_1..T_size
form a unit lower-triangular integer matrix; the same matrix maps a
moment sequence to the response vector of the associated system, r =
transform @ s, and its unit diagonal makes the inverse map an exact
back-substitution.  Entries are always computed in exact integer
arithmetic (Python ints never overflow) and converted to the requested
precision at the boundary.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    ConditioningWarning,
    MomentSequence,
    PrecisionMode,
    ResponseVector,
    _BlockMixin,
    _freeze_array,
    sequence_values,
)
from .dynamics import _check_block_memory
from ._multiprec import (_Ints, _emitted, _int_form, _kind, _lifted_nu,
                         _mode_rounded, _number_kind, above_noise, dot,
                         dot_operand, leading_eig_extremes, lift, lift_ints)

__all__ = [
    "HankelMatrix",
    "ChebyshevTransform",
    "HankelPositivityReport",
    "build_hankel",
    "chebyshev_transform",
    "moments_to_response",
    "response_to_moments",
    "hankel_positivity",
    "hankel_min_eigs",
]


@dataclass(frozen=True)
class HankelMatrix(_BlockMixin):
    """Matrix with constant anti-diagonals: entry (i, j) = s_{i+j}."""

    matrix: np.ndarray
    _kind = "Hankel matrix"


@dataclass(frozen=True)
class ChebyshevTransform(_BlockMixin):
    """Unit lower-triangular integer matrix of T_k monomial coefficients.

    Row i (0-based) holds the coefficients of T_{i+1} in the monomial
    basis; the determinant is 1, so the transform is invertible over the
    rationals.  Entries are Python ints (object dtype) and thus exact at
    every size.
    """

    matrix: np.ndarray
    _kind = "Chebyshev transform"


def build_hankel(s, size: int,
                 precision: PrecisionMode = PrecisionMode.DOUBLE) -> HankelMatrix:
    """The size x size block with entries s_{i+j} (0-based indices), the
    moments lifted once to ``precision``; complex moments raise
    ComplexDataError.  A block whose size estimate exceeds physical
    memory is refused with JacobiBCError before it is allocated; the
    block is the only array of its size made.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    sv = _lifted_nu(s, size, 0, precision)
    _check_block_memory(size, precision, "Hankel block")
    # row i is the window s_i..s_{i+size-1}, copied once into the block,
    # which HankelMatrix keeps as it is
    mat = np.array(sliding_window_view(sv, size))
    mat.setflags(write=False)
    return HankelMatrix(mat)


def _transform_rows(size: int):
    """Rows 0..size-1 of the transform, one at a time, as lists of exact
    ints: row i holds the entries (i, j) for j = i % 2, i % 2 + 2, ..., i,
    the only ones that can be nonzero.

    Row i is T_{i+1}, and T_{i+2} = x T_{i+1} - T_i (T_0 = 0, T_1 = 1):
    x shifts the entries of row i one column right, which for i odd puts
    a zero in front, and row i-1 is subtracted entry by entry.  Only two
    rows are held at a time.
    """
    below, row = [], [1]
    for i in range(size):
        yield row
        shifted = [0] + row if i % 2 else row
        below, row = row, [x - y for x, y in itertools.zip_longest(
            shifted, below, fillvalue=0)]


def chebyshev_transform(size: int) -> ChebyshevTransform:
    """Exact integer transform of order ``size``.

    Entry (i, j), 0-based, is zero for i < j or odd i + j, and otherwise
    C((i+j)/2, j) * (-1)^((i+j)/2 + j); the rows come from the T_k
    recurrence (``_transform_rows``).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    return ChebyshevTransform(_transform_matrix(size, PrecisionMode.RATIONAL))


def _transform_matrix(size: int, precision: PrecisionMode) -> np.ndarray:
    """The transform of order ``size`` with the entries of
    ``lift_ints(row, precision)``: float64 in DOUBLE, where an entry
    beyond its range (from size 1484 on) raises ConditioningError, and
    exact ints otherwise.  Filled one row at a time."""
    mat = np.zeros((size, size), dtype=lift_ints([], precision).dtype)
    for i, row in enumerate(_transform_rows(size)):
        mat[i, i % 2:i + 1:2] = lift_ints(row, precision)
    return mat


def _response_ints(s: _Ints) -> _Ints:
    """transform @ s on the integer form of s, exactly: with w_k[m] =
    sum_j T_k[j] s_{j+m}, T_{k+1} = x T_k - T_{k-1} gives w_{k+1}[m] =
    w_k[m+1] - w_{k-1}[m] from w_0 = 0 and w_1 = s, and r_i = w_{i+1}[0]."""
    def sums(part):
        below, row, out = [0] * len(part), part, []
        while row:
            out.append(row[0])
            below, row = row, [x - y for x, y in zip(row[1:], below)]
        return out

    return _Ints(sums(s.re), s.im and sums(s.im), s.den, s.exp)


def _response_data(s, precision: PrecisionMode):
    """transform @ s of the lifted moments as ``_int_form`` gives them,
    for recovery: _Ints take their exact sums, rounded once to the mode."""
    if isinstance(s, _Ints):
        return _mode_rounded(_response_ints(s), precision)
    return moments_to_response(s, precision).as_array()


def moments_to_response(s, precision: PrecisionMode = PrecisionMode.DOUBLE) -> ResponseVector:
    """r = transform @ s: exact in rational mode, rounded once in extended.

    Row i of the transform is zero past the diagonal and at odd i + j, so
    r_i sums s_j over j <= i with i + j even only: the terms skipped are
    exact zeros, and no 0 * inf puts a NaN into a finite DOUBLE entry.
    The object modes sum s exactly on its integer form
    (``_response_ints``); r_i is an mpc where one of its s_j is.  Float
    data, and inf or NaN, take each row's ``_multiprec.dot``, the rows
    generated one at a time, so memory stays O(size); in DOUBLE a row
    entry beyond float64 (from 1484 entries on) raises ConditioningError.
    """
    sx = lift(sequence_values(s), precision)
    form = _int_form(sx)
    if form is sx:
        r = np.empty_like(sx)
        with np.errstate(over="ignore", invalid="ignore"):  # users refuse inf
            for i, row in enumerate(_transform_rows(sx.size)):
                r[i] = dot(lift_ints(row, precision), sx[i % 2:i + 1:2])
        return ResponseVector(r)
    held = [_kind(x)[0] is complex for x in sx.tolist()]
    mpc = sum(any(held[i % 2:i + 1:2]) << i for i in range(len(held)))
    return ResponseVector(np.array(_emitted(
        _response_ints(form), _number_kind(precision), mpc=mpc), dtype=object))


def response_to_moments(r, precision: PrecisionMode = PrecisionMode.DOUBLE) -> MomentSequence:
    """s = transform^{-1} r by back-substitution on the unit diagonal.

    Round-trips with moments_to_response exactly in rational mode.  As
    there, only the terms j < i with i + j even are summed, by ``dot``,
    and the rows are generated one at a time; in extended each step
    subtracts the row's sum rounded once, over the integer form of the
    moments found so far, which grows by one value a row.
    """
    s = lift(sequence_values(r), precision)
    # the moments found so far: s itself, or where s takes the integer
    # form (``dot_operand``), that form grown from empty
    found = dot_operand(s)
    grow = found is not s
    if grow:
        found = found[:0]
    with np.errstate(over="ignore", invalid="ignore"):  # users refuse inf
        for i, row in enumerate(_transform_rows(s.size)):
            s[i] = s[i] - dot(lift_ints(row[:-1], precision), found[i % 2:i:2])
            if grow:
                found.extend([s[i]])
    return MomentSequence(s)


def hankel_min_eigs(s, n_max: int,
                    precision: PrecisionMode = PrecisionMode.DOUBLE) -> np.ndarray:
    """Smallest eigenvalue of S_N for N = 1..n_max.

    All of them are read off one recurrence on s (see
    ``leading_eig_extremes``), whose pivots, in the mode's arithmetic,
    decide which blocks are positive definite: a block the pivots accept
    reports an eigenvalue > 0, or raises ConditioningError where a double
    cannot hold it, never 0.0, and a block past a failed pivot reports
    an eigenvalue <= 0.  A ConditioningWarning is emitted
    once the value drops below the noise floor of the mode (for double
    precision 1e3 * eps * ||S_N||); extended precision is recommended
    past that point (Hankel blocks of genuine moment sequences are
    exponentially ill-conditioned).
    """
    mins, maxs = leading_eig_extremes(build_hankel(s, n_max, precision).matrix,
                                      s, 0, precision)
    noisy = np.flatnonzero(~above_noise(mins, maxs, precision))
    if noisy.size:
        warnings.warn(
            f"smallest Hankel eigenvalue at N={noisy[0] + 1} is below the "
            f"{precision.value}-precision noise floor; raise the precision",
            ConditioningWarning, stacklevel=2)
    return mins


@dataclass(frozen=True)
class HankelPositivityReport:
    """Solvability verdict from the leading Hankel blocks."""

    min_eigenvalues: np.ndarray
    solvable: bool
    first_failure: int | None

    def __post_init__(self):
        _freeze_array(self, "min_eigenvalues", self.min_eigenvalues, float)


def hankel_positivity(s, n_max: int,
                      precision: PrecisionMode = PrecisionMode.DOUBLE) -> HankelPositivityReport:
    """Minimum eigenvalues of S_1..S_{n_max} and the positivity verdict.

    A moment problem is solvable by a positive measure exactly when every
    leading block is positive definite; the report gives the first N
    where that fails, if any.  The verdict is the pivots' of Wheeler's
    rows on s, in the mode's own arithmetic (exact Fractions in
    RATIONAL), as recovery takes it: a block the pivots accept reports
    an eigenvalue > 0, or raises ConditioningError where a double cannot
    hold it, never 0.0, and a block past a failed pivot reports an
    eigenvalue <= 0 (see ``hankel_min_eigs``).
    """
    eigs = hankel_min_eigs(s, n_max, precision)
    bad = np.flatnonzero(eigs <= 0)
    first = int(bad[0]) + 1 if bad.size else None
    return HankelPositivityReport(min_eigenvalues=eigs,
                                  solvable=first is None,
                                  first_failure=first)
