"""Forward solvers for the discrete-time boundary-driven systems.

The state u_{n,t} obeys the recurrence

    u_{n,t+1} = a_n u_{n+1,t} + a_{n-1} u_{n-1,t} + b_n u_{n,t} - u_{n,t-1}

for n >= 1 and t >= 0, with zero initial data u_{n,-1} = u_{n,0} = 0 and
the control applied at site 0: u_{0,t} = f_t.  The control enters one
site per time step, so u_{n,t} = 0 whenever n > t (finite propagation
speed); the semi-infinite solver therefore only materializes the cone
n <= horizon.  The finite variant adds the Dirichlet wall u_{N+1,t} = 0.
The coefficients must be real (every coefficient read refuses a complex
a_n or b_n with ComplexDataError); the control may be complex.

Every solver lifts the control and the coefficients once and runs the
one forward sweep of the backend, ``_multiprec.forward_sweep``, over two
time slices.  A step updates only the sites inside the reachable cone:
those the wave has reached, and from which a value can still travel
back to the sites the caller reads before the horizon.
``response_vector`` reads site 1 alone, so it keeps O(T) memory and
updates about a quarter of the cells of the full field.
``solve_semi_infinite``, ``solve_finite`` and ``control_operator``
return the whole field, which is O(N T) memory;
they refuse a field whose size estimate exceeds physical memory before
allocating it.  Each computed cell gets the same operands in every
solver.  In DOUBLE they come in the same order, and RATIONAL is exact,
so there all solvers agree to the last bit; EXTENDED rounds each cell
once from slices that carry 64 bits beyond the precision, so solvers
that round different cones may differ in the last bit of a cell.  The
fields are plain arrays: writing them to files is the CLI's job, which
streams CSV rows straight from the one field.

Because the coefficients do not depend on t, shifting a control in time
shifts the solution: the impulse response determines the response to any
control by convolution, and a single impulse run yields the whole
control operator.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    JacobiBCError,
    JacobiCoefficients,
    PrecisionMode,
    ResponseVector,
    _data_head,
    _freeze_array,
    _read_array,
    _read_control,
    _zero_extended,
)
from ._multiprec import (_finite, _gram_out, cell_bytes, forward_sweep, lift,
                         mode_of)

__all__ = [
    "WaveField",
    "ControlOperatorMatrix",
    "solve_semi_infinite",
    "solve_finite",
    "response_vector",
    "control_operator",
    "apply_response",
]

@dataclass(frozen=True)
class WaveField:
    """Solution values u_{n,t} for 0 <= n <= n_space, -1 <= t <= horizon.

    Row 0 carries the boundary control; rows 1..n_space the interior
    state.  Column index c maps to time t = c - 1.
    """

    values: np.ndarray
    n_space: int
    horizon: int

    def __post_init__(self):
        _freeze_array(self, "values", self.values)

    def value(self, n: int, t: int):
        """u_{n,t} with the natural indices (t may be -1)."""
        if not (0 <= n <= self.n_space):
            raise IndexError(f"space index {n} outside 0..{self.n_space}")
        return self.values[n, self._column(t)]

    def state(self, t: int) -> np.ndarray:
        """Interior snapshot (u_{1,t}, ..., u_{n_space,t}), with the
        time indices of ``value``."""
        return self.values[1:, self._column(t)]

    def _column(self, t: int) -> int:
        if not (-1 <= t <= self.horizon):
            raise IndexError(f"time index {t} outside -1..{self.horizon}")
        return t + 1


@dataclass(frozen=True)
class ControlOperatorMatrix:
    """Upper-triangular control-to-state matrix W_T.

    Column k (0-based) is the impulse-response snapshot
    (u_{1,k+1}, ..., u_{T,k+1}); the diagonal entry (k, k) is the
    wavefront amplitude a_0 a_1 ... a_k.  The control operator itself is
    W^T = W_T J_T where J_T reverses the control (``flipped``).
    """

    matrix: np.ndarray
    horizon: int

    def __post_init__(self):
        _freeze_array(self, "matrix", self.matrix)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.matrix)

    def flipped(self) -> np.ndarray:
        """W^T = W_T J_T: maps a control f to the state at t = horizon."""
        return self.matrix[:, ::-1]

    def apply(self, control) -> np.ndarray:
        """State (u^f_{1,T}, ..., u^f_{T,T}) produced by ``control``, read
        as the solvers read it at this horizon and lifted once to the mode
        of W: a shorter control is zero-extended, and a longer one raises
        ValueError."""
        f = lift(_zero_extended(control, self.horizon), mode_of(self.matrix))
        return self.flipped() @ f


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_sizes(horizon: int, n_space: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_space < 1:
        raise ValueError("n_space must be >= 1")


def _lift_control(values, horizon: int, precision: PrecisionMode):
    """Control values read by ``_read_control``, lifted once, then
    zero-extended to ``horizon`` by what ``lift`` gives for a 0 of their
    dtype (an mpc 0 for a complex control in EXTENDED)."""
    values = _read_array(values)
    zero = lift(np.zeros(1, dtype=values.dtype), precision)
    return np.concatenate((lift(values, precision),
                           np.repeat(zero, horizon - len(values))))


def _lift_system(coeffs: JacobiCoefficients, ctrl, horizon: int,
                 n_space: int, precision: PrecisionMode):
    """The control ``ctrl`` (``_lift_control``, first: it may be complex,
    which makes the field complex), a_0..a_{n_space-1} and b_1..b_{n_space}
    lifted once to the number type of ``precision``, and the number type
    of the field; a complex a_n or b_n raises ComplexDataError, and in
    DOUBLE an inf or NaN one ConditioningError naming it (``_finite``)."""
    ctrl = _lift_control(ctrl, horizon, precision)
    a = _finite(lift(coeffs.a_head(n_space), precision), "a", 0)
    b = _finite(lift(coeffs.b_head(n_space), precision), "b", 1)
    return ctrl, a, b, np.result_type(a, b, ctrl)


def _check_memory(cells: int, precision: PrecisionMode, what: str,
                  advice: str, per_cell: int = 0) -> None:
    """Refuse, before anything is allocated, ``what``, an array of
    ``cells`` cells whose estimate exceeds physical memory: ``cell_bytes``
    per cell, plus the ``per_cell`` bytes a caller holds beside it.  The
    JacobiBCError names both sizes and ends with ``advice``."""
    need = cells * (cell_bytes(precision) + per_cell)
    have = _physical_memory()
    if need > have:
        raise JacobiBCError(
            f"{what} needs about {need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of physical memory; {advice}")


def _check_field_memory(n_space: int, horizon: int, precision: PrecisionMode,
                        per_cell: int = 0) -> None:
    """``_check_memory`` for a field of (n_space+1) x (horizon+2) cells,
    of which the solvers keep one copy; the sweep's O(n + T) working set
    is not counted."""
    _check_memory((n_space + 1) * (horizon + 2), precision,
                  f"a {n_space + 1} x {horizon + 2} wave field",
                  "use a shorter horizon (response vectors need only O(T) "
                  "memory)", per_cell)


def _check_block_memory(size: int, precision: PrecisionMode,
                        what: str) -> None:
    """``_check_memory`` for a size x size block of ``what`` built from
    data; the message names the largest block that would fit."""
    fit = math.isqrt(_physical_memory() // cell_bytes(precision))
    _check_memory(size * size, precision, f"a {size} x {size} {what}",
                  f"use a size of at most {fit}")


def _impulse_sites(coeffs: JacobiCoefficients, horizon: int, n_space: int,
                   watched: int, precision: PrecisionMode):
    """u_{n,t+1} of the impulse control for the sites n = 1..watched and
    t = 0..horizon-1, as a read-only C-contiguous (watched, horizon)
    array."""
    ctrl, a, b, dtype = _lift_system(coeffs, [1], horizon, n_space, precision)
    out = np.empty((watched, horizon), dtype=dtype)
    forward_sweep(ctrl, a, b, out)
    out.setflags(write=False)
    return out


def _full_field(coeffs: JacobiCoefficients, ctrl, horizon: int,
                n_space: int, precision: PrecisionMode) -> WaveField:
    """The field of rows n = 0..n_space and columns t = -1..horizon, its
    values C-contiguous and read-only, so WaveField keeps them without a
    copy.

    Row 0 carries the control values ``ctrl``, zero at t = -1 and t =
    horizon; the interior is zero at t = -1 and t = 0.  A field whose
    size estimate exceeds physical memory is refused before anything is
    allocated, the control included.
    """
    _check_sizes(horizon, n_space)
    _check_field_memory(n_space, horizon, precision)
    ctrl, a, b, dtype = _lift_system(coeffs, ctrl, horizon, n_space,
                                     precision)
    field = np.zeros((n_space + 1, horizon + 2), dtype=dtype)
    field[0, 1:horizon + 1] = ctrl
    forward_sweep(ctrl, a, b, field[1:, 2:])
    field.setflags(write=False)
    return WaveField(values=field, n_space=n_space, horizon=horizon)


def solve_semi_infinite(coeffs: JacobiCoefficients, control,
                        horizon: int | None = None,
                        precision: PrecisionMode = PrecisionMode.DOUBLE) -> WaveField:
    """Field of the semi-infinite system up to time ``horizon``.

    Materializes the causality cone n <= horizon, which contains every
    nonzero value.  The horizon defaults to the control's length; a
    shorter control is zero-extended and a longer one raises ValueError.
    Raises JacobiBCError, before allocating, when the field cannot fit in
    physical memory.
    """
    horizon, ctrl = _read_control(control, horizon)
    return _full_field(coeffs, ctrl, horizon, horizon, precision)


def solve_finite(coeffs: JacobiCoefficients, size: int, control,
                 horizon: int | None = None,
                 precision: PrecisionMode = PrecisionMode.DOUBLE) -> WaveField:
    """Field of the size-N system with the Dirichlet wall at n = N + 1.

    Coincides with the semi-infinite field wherever n <= t <= N; beyond
    that the wall reflects the wave.  Controls and oversized fields are
    treated as in ``solve_semi_infinite``.
    """
    horizon, ctrl = _read_control(control, horizon)
    return _full_field(coeffs, ctrl, horizon, size, precision)


def response_vector(coeffs: JacobiCoefficients, length: int,
                    precision: PrecisionMode = PrecisionMode.DOUBLE) -> ResponseVector:
    """Impulse response (r_0, ..., r_{length-1}), r_{t-1} = u_{1,t}.

    Finite coefficient sets are simulated with their own Dirichlet wall,
    which reproduces the semi-infinite response for t <= 2N - 1; deeper
    entries reflect the wall, as they do for the size-N system itself.
    Only site 1 is kept, so memory is O(length).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    n_space = coeffs.size if coeffs.is_finite else length
    _check_sizes(length, n_space)
    return ResponseVector(
        _impulse_sites(coeffs, length, n_space, 1, precision)[0])


def control_operator(coeffs: JacobiCoefficients, horizon: int,
                     precision: PrecisionMode = PrecisionMode.DOUBLE) -> ControlOperatorMatrix:
    """W_T extracted from one impulse run.

    Time invariance turns every canonical basis control into a shifted
    impulse, so column k of W_T is the impulse snapshot at time k + 1;
    the matrix is upper triangular with diagonal a_0 a_1 ... a_k by the
    finite propagation speed.  Oversized fields are refused as in
    ``solve_semi_infinite``.
    """
    _check_sizes(horizon, horizon)
    _check_field_memory(horizon, horizon, precision)
    w = _impulse_sites(coeffs, horizon, horizon, horizon, precision)
    return ControlOperatorMatrix(matrix=w, horizon=horizon)


def _gram_upper(coeffs: JacobiCoefficients, horizon: int,
                precision: PrecisionMode):
    """W_T of ``control_operator`` as ``_multiprec.gram_solve`` takes it
    (``_gram_out``): the float matrix in DOUBLE, and in the object modes
    the list of its columns from the sweep, with no cell made.  Sizes are
    refused alike."""
    _check_sizes(horizon, horizon)
    _check_field_memory(horizon, horizon, precision)
    ctrl, a, b, dtype = _lift_system(coeffs, [1], horizon, horizon,
                                     precision)
    upper = _gram_out(dtype, horizon)
    forward_sweep(ctrl, a, b, upper)
    return upper


def apply_response(r, control, horizon: int | None = None,
                   precision: PrecisionMode = PrecisionMode.DOUBLE) -> np.ndarray:
    """Outputs ((R f)_1, ..., (R f)_T): the convolution sum_s r_s f_{t-1-s}.

    Equals u^f_{1,t} for t = 1..T when r is the system's impulse response.
    The control is read as the solvers read it; fewer than T values of r
    raise InsufficientDataError.  Both are lifted once to ``precision``,
    whose arithmetic sums the products (exactly in RATIONAL).
    """
    horizon = _read_control(control, horizon)[0]
    _check_sizes(horizon, 1)
    # convolved as given: the zero extension adds nothing to the sums, and
    # its zeros would only regroup numpy's summation
    f = lift(list(_read_control(control)[1]) or [0], precision)
    return np.convolve(lift(_data_head(r, horizon, "response data"),
                            precision), f)[:horizon]
