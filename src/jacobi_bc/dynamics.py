"""Forward solvers for the discrete-time boundary-driven systems.

The state u_{n,t} obeys the recurrence

    u_{n,t+1} = a_n u_{n+1,t} + a_{n-1} u_{n-1,t} + b_n u_{n,t} - u_{n,t-1}

for n >= 1 and t >= 0, with zero initial data u_{n,-1} = u_{n,0} = 0 and
the control applied at site 0: u_{0,t} = f_t.  The control enters one
site per time step, so u_{n,t} = 0 whenever n > t (finite propagation
speed); the semi-infinite solver therefore only materializes the cone
n <= horizon.  The finite variant adds the Dirichlet wall u_{N+1,t} = 0.

Every solver runs one rolling sweep over two time slices.  A step
updates only the sites inside the reachable cone: those the wave has
reached, and from which a value can still travel back to the sites the
caller reads before the horizon.  Float rows run ``_sweep``, where the
cost of a step is numpy dispatch, not arithmetic: a step is four ufunc
calls into preallocated buffers, and the updated width is rounded up to
a multiple of 64 sites so that the slices are re-cut only every 64
steps; the extra cells cannot change an output.  Object rows (EXTENDED
and RATIONAL) run ``_multiprec.forward_sweep`` on slices of Python ints
over one scale, one integer update per cell and one conversion per cell
kept.  ``response_vector`` reads site 1 alone, so it keeps O(T) memory
and updates about a quarter of the cells of the full field.
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

import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    BoundaryControl,
    JacobiBCError,
    JacobiCoefficients,
    PrecisionMode,
    ResponseVector,
    _freeze_array,
    sequence_values,
)
from ._multiprec import cell_bytes, forward_sweep, lift, width_quantum

__all__ = [
    "WaveField",
    "ControlOperatorMatrix",
    "solve_semi_infinite",
    "solve_finite",
    "response_vector",
    "control_operator",
    "apply_response",
]

# Steps whose widths and control values the sweep holds as lists at once.
_STEP_CHUNK = 128


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
        if not (-1 <= t <= self.horizon):
            raise IndexError(f"time index {t} outside -1..{self.horizon}")
        return self.values[n, t + 1]

    def state(self, t: int) -> np.ndarray:
        """Interior snapshot (u_{1,t}, ..., u_{n_space,t})."""
        return self.values[1:, t + 1]


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
        """State (u^f_{1,T}, ..., u^f_{T,T}) produced by ``control``."""
        f = np.asarray(getattr(control, "values", control))
        if len(f) != self.horizon:
            raise ValueError("control length must equal the horizon")
        return self.flipped() @ f


def _control_array(control, horizon: int, precision: PrecisionMode):
    if isinstance(control, BoundaryControl):
        vals = control.padded(horizon)
    else:
        vals = list(control)
        if len(vals) > horizon:
            raise ValueError("control longer than the horizon")
        vals = vals + [0] * (horizon - len(vals))
    return lift(vals, precision)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_sizes(horizon: int, n_space: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_space < 1:
        raise ValueError("n_space must be >= 1")


def _lift_system(coeffs: JacobiCoefficients, control, horizon: int,
                 n_space: int, precision: PrecisionMode):
    """The control and the (3, n_space) coefficient rows (a_{n-1}, b_n,
    a_n) of the sites n = 1..n_space, each row lifted on its own to the
    number type of ``precision``, and the number type of the field.

    The last a_n is a zero that multiplies the ghost site n_space + 1,
    which is identically zero: the causality cone for the semi-infinite
    system, the Dirichlet wall for the finite one; it is also the zero an
    unreached site holds.  The field takes the type of a and the
    control: a complex b alone leaves it real, and the sweep drops b's
    imaginary parts at each step.  Object rows keep their own types, so
    a complex b leaves a and that zero real there too.
    """
    ctrl = _control_array(control, horizon, precision)
    a = coeffs.a_head(n_space)
    coef = np.array([lift(row, precision) for row in
                     (a, coeffs.b_head(n_space), a[1:] + [0])])
    real_a = np.iscomplexobj(coef) and not np.iscomplexobj(a)
    return ctrl, coef, np.result_type(coef.real if real_a else coef, ctrl)


def _sweep(ctrl, coef, out: np.ndarray) -> None:
    """Run the recurrence on float rows for t = 0..horizon-1 and write
    u_{n,t+1} into out[n-1, t] for the watched sites n = 1..len(out).

    Two rolling slices hold the sites 0..n_space+1 at times t-1 and t.
    Step t updates the sites 1..k of the cone, k = min(t+1, n_space,
    watched + horizon - t - 1): the wave has reached them, and a value
    there can still travel back to a watched site by the horizon.  The
    coefficients are held once as rows (a_{n-1}, b_n, a_n), and each
    slice has a strided view with rows (u_{n-1}, u_n, u_{n+1}), so a
    step is four ufunc calls: one 3-row product P, P_2 + P_0, + P_1, and
    - u_{n,t-1} into the older slice.  That is (a_n u_{n+1} + a_{n-1}
    u_{n-1}) + b_n u_n - u_{n,t-1}, the operands and order of the
    full-field update, so each cell an output reads has its bits.

    The sum is formed in the type of the coefficients and the field;
    a field that is real while b is complex takes its real part.

    k is rounded up to a multiple of ``width_quantum`` sites (capped at
    n_space), and the views are re-cut only when that width changes.
    The cells it adds lie past the wavefront, where they stay +0.0, or
    outside the watched sites' dependence cone, so no output can see
    them.  Every other site keeps the zero it starts with or a value no
    watched site can see.  One watched site (``response_vector``) is
    collected in a list and written into ``out`` once, not a column per
    step.
    """
    n_space, horizon, watched = coef.shape[1], len(ctrl), len(out)
    quantum = width_quantum(coef)
    slices = (np.zeros(n_space + 2, dtype=out.dtype),)
    slices += (slices[0].copy(),)
    sites = [as_strided(s, (3, n_space), s.strides * 2, writeable=False)
             for s in slices]
    prod = np.empty((3, n_space), dtype=np.result_type(coef, out))
    # prod itself, or its real part where only b is complex
    acc = prod if np.iscomplexobj(out) else prod.real
    # per parity of t: the width its views were cut for, and the views
    widths, views = [0, 0], [None, None]
    # one watched site: its values, written into out once at the end
    site = [] if watched == 1 else None
    # Rapidly growing coefficient families overflow float64 inside the
    # cone; those cells hold inf or nan and are returned as they are.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, k, f in _steps(ctrl, n_space, watched, quantum):
            i = t & 1
            if k != widths[i]:
                p, older = prod[:, :k], slices[1 - i]
                widths[i] = k
                views[i] = (slices[i], coef[:, :k], sites[i][:, :k], p, *p,
                            acc[2, :k], older[1:k + 1], older[1:watched + 1])
            cur, c, u, p, p0, p1, p2, total, prev, seen = views[i]
            cur[0] = f
            np.multiply(c, u, out=p)
            np.add(p2, p0, out=p2)
            np.add(p2, p1, out=p2)
            np.subtract(total, prev, out=prev)
            if site is None:
                out.T[t] = seen
            else:
                site.append(seen[0])
    if site is not None:
        out[0] = site


def _steps(ctrl, n_space: int, watched: int, quantum: int):
    """(t, k, f_t) for the steps t = 0..horizon-1 of ``_sweep``, where k
    is the width step t updates, as Python numbers, which a step reads
    faster than numpy scalars.  They are computed with numpy
    _STEP_CHUNK steps at a time, so their lists stay short."""
    horizon = len(ctrl)
    for start in range(0, horizon, _STEP_CHUNK):
        t = np.arange(start, min(start + _STEP_CHUNK, horizon))
        k = np.minimum(np.minimum(t + 1, n_space), watched + horizon - t - 1)
        k = np.minimum(-(-k // quantum) * quantum, n_space)
        yield from zip(t.tolist(), k.tolist(),
                       ctrl[start:start + _STEP_CHUNK].tolist())


def _check_field_memory(n_space: int, horizon: int, precision: PrecisionMode,
                        per_cell: int = 0) -> None:
    """Refuse, before anything is allocated, a field of (n_space+1) x
    (horizon+2) cells whose estimate exceeds physical memory.

    The estimate counts ``cell_bytes`` per cell for the field, of which
    the solvers keep one copy, plus the ``per_cell`` bytes a caller holds
    beside it; the sweep's O(n + T) working set is not counted.
    """
    need = (n_space + 1) * (horizon + 2) * (cell_bytes(precision) + per_cell)
    have = _physical_memory()
    if need > have:
        raise JacobiBCError(
            f"a {n_space + 1} x {horizon + 2} wave field needs about "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB "
            "of physical memory; use a shorter horizon (response vectors "
            "need only O(T) memory)")


def _watched_sites(coeffs: JacobiCoefficients, control, horizon: int,
                   n_space: int, watched: int, precision: PrecisionMode):
    """u_{n,t+1} for the sites n = 1..watched and t = 0..horizon-1, as a
    read-only C-contiguous (watched, horizon) array."""
    ctrl, coef, dtype = _lift_system(coeffs, control, horizon, n_space,
                                     precision)
    out = np.empty((watched, horizon), dtype=dtype)
    forward_sweep(ctrl, coef, out, _sweep)
    out.setflags(write=False)
    return out


def _full_field(coeffs: JacobiCoefficients, control, horizon: int,
                n_space: int, precision: PrecisionMode) -> np.ndarray:
    """Rows n = 0..n_space and columns t = -1..horizon, C-contiguous and
    read-only, so WaveField keeps it without a copy.

    Row 0 carries the control, zero at t = -1 and t = horizon; the
    interior is zero at t = -1 and t = 0.  A field whose size estimate
    exceeds physical memory is refused before anything is allocated.
    """
    _check_sizes(horizon, n_space)
    _check_field_memory(n_space, horizon, precision)
    ctrl, coef, dtype = _lift_system(coeffs, control, horizon, n_space,
                                     precision)
    field = np.zeros((n_space + 1, horizon + 2), dtype=dtype)
    field[0, 1:horizon + 1] = ctrl
    forward_sweep(ctrl, coef, field[1:, 2:], _sweep)
    field.setflags(write=False)
    return field


def solve_semi_infinite(coeffs: JacobiCoefficients, control,
                        horizon: int | None = None,
                        precision: PrecisionMode = PrecisionMode.DOUBLE) -> WaveField:
    """Field of the semi-infinite system up to time ``horizon``.

    Materializes the causality cone n <= horizon, which contains every
    nonzero value.  Controls shorter than the horizon are zero-extended.
    Raises JacobiBCError, before allocating, when the field cannot fit in
    physical memory.
    """
    if horizon is None:
        horizon = control.horizon if hasattr(control, "horizon") else len(control)
    values = _full_field(coeffs, control, horizon, horizon, precision)
    return WaveField(values=values, n_space=horizon, horizon=horizon)


def solve_finite(coeffs: JacobiCoefficients, size: int, control,
                 horizon: int | None = None,
                 precision: PrecisionMode = PrecisionMode.DOUBLE) -> WaveField:
    """Field of the size-N system with the Dirichlet wall at n = N + 1.

    Coincides with the semi-infinite field wherever n <= t <= N; beyond
    that the wall reflects the wave.  Oversized fields are refused as in
    ``solve_semi_infinite``.
    """
    if horizon is None:
        horizon = control.horizon if hasattr(control, "horizon") else len(control)
    values = _full_field(coeffs, control, horizon, size, precision)
    return WaveField(values=values, n_space=size, horizon=horizon)


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
    row = _watched_sites(coeffs, [1], length, n_space, 1, precision)[0]
    if np.iscomplexobj(row):
        row = row.real
    return ResponseVector(row)


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
    w = _watched_sites(coeffs, [1], horizon, horizon, horizon, precision)
    if np.iscomplexobj(w):
        w = w.real
    return ControlOperatorMatrix(matrix=w, horizon=horizon)


def apply_response(r, control, horizon: int | None = None) -> np.ndarray:
    """Outputs ((R f)_1, ..., (R f)_T): the convolution sum_s r_s f_{t-1-s}.

    Equals u^f_{1,t} for t = 1..T when r is the system's impulse response.
    """
    rv = sequence_values(r)
    f = np.asarray(getattr(control, "values", control))
    if horizon is None:
        horizon = len(f)
    if len(rv) < horizon:
        raise ValueError("response vector shorter than the horizon")
    return np.convolve(rv[:horizon], f)[:horizon]
