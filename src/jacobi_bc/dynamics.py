"""Forward solvers for the discrete-time boundary-driven systems.

The state u_{n,t} obeys the recurrence

    u_{n,t+1} = a_n u_{n+1,t} + a_{n-1} u_{n-1,t} + b_n u_{n,t} - u_{n,t-1}

for n >= 1 and t >= 0, with zero initial data u_{n,-1} = u_{n,0} = 0 and
the control applied at site 0: u_{0,t} = f_t.  The control enters one
site per time step, so u_{n,t} = 0 whenever n > t (finite propagation
speed); the semi-infinite solver therefore only materializes the cone
n <= horizon.  The finite variant adds the Dirichlet wall u_{N+1,t} = 0.

Because the coefficients do not depend on t, shifting a control in time
shifts the solution: the impulse response determines the response to any
control by convolution, and a single impulse run yields the whole
control operator.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryControl,
    CoefficientUnderrunError,
    JacobiCoefficients,
    PrecisionMode,
    ResponseVector,
    _freeze_array,
    sequence_values,
)
from ._multiprec import lift

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
        if not (-1 <= t <= self.horizon):
            raise IndexError(f"time index {t} outside -1..{self.horizon}")
        return self.values[n, t + 1]

    def state(self, t: int) -> np.ndarray:
        """Interior snapshot (u_{1,t}, ..., u_{n_space,t})."""
        return self.values[1:, t + 1]

    def to_json_dict(self) -> dict:
        vals = self.values
        if np.iscomplexobj(vals):
            rows = [[[float(v.real), float(v.imag)] for v in row] for row in vals]
        else:
            rows = [[float(v) for v in row] for row in vals]
        return {"n_space": self.n_space, "horizon": self.horizon,
                "time_start": -1, "rows": rows}

    def to_csv(self) -> str:
        """Rows = space index, columns = time from -1 to horizon."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n\\t"] + [str(t) for t in range(-1, self.horizon + 1)])
        for n in range(self.n_space + 1):
            row = [str(n)]
            for v in self.values[n]:
                if np.iscomplexobj(self.values):
                    row.append(f"{complex(v).real:.17g}{complex(v).imag:+.17g}j")
                else:
                    row.append(f"{float(v):.17g}")
            writer.writerow(row)
        return buf.getvalue()


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


def _simulate(coeffs: JacobiCoefficients, control, horizon: int, n_space: int,
              precision: PrecisionMode) -> np.ndarray:
    """Shared update loop; returns rows n = 0..n_space, columns t = -1..horizon.

    Row n_space + 1 is a ghost row that is identically zero: the
    causality cone for the semi-infinite system, the Dirichlet wall for
    the finite one.  The update may reference a_{n_space} and the ghost
    row, but only ever multiplied by zero, so a zero pad is exact.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_space < 1:
        raise ValueError("n_space must be >= 1")
    ctrl = _control_array(control, horizon, precision)

    a = lift(coeffs.a_head(n_space) + [0], precision)
    b = lift([0] + coeffs.b_head(n_space), precision)
    u = np.zeros((n_space + 2, horizon + 2), dtype=np.result_type(a, ctrl))

    # Far-field overflow (rapidly growing coefficient families) cannot
    # reach the rows a caller can observe within this horizon: any
    # contamination travels at most one site per step.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            u[0, t + 1] = ctrl[t]
            cur = u[:, t + 1]
            u[1:n_space + 1, t + 2] = (
                a[1:] * cur[2:n_space + 2]
                + a[:-1] * cur[0:n_space]
                + b[1:] * cur[1:n_space + 1]
                - u[1:n_space + 1, t]
            )
    return u[:n_space + 1]


def solve_semi_infinite(coeffs: JacobiCoefficients, control,
                        horizon: int | None = None,
                        precision: PrecisionMode = PrecisionMode.DOUBLE) -> WaveField:
    """Field of the semi-infinite system up to time ``horizon``.

    Materializes the causality cone n <= horizon, which contains every
    nonzero value.  Controls shorter than the horizon are zero-extended.
    """
    if horizon is None:
        horizon = control.horizon if hasattr(control, "horizon") else len(control)
    values = _simulate(coeffs, control, horizon, horizon, precision)
    return WaveField(values=values, n_space=horizon, horizon=horizon)


def solve_finite(coeffs: JacobiCoefficients, size: int, control,
                 horizon: int | None = None,
                 precision: PrecisionMode = PrecisionMode.DOUBLE) -> WaveField:
    """Field of the size-N system with the Dirichlet wall at n = N + 1.

    Coincides with the semi-infinite field wherever n <= t <= N; beyond
    that the wall reflects the wave.
    """
    if horizon is None:
        horizon = control.horizon if hasattr(control, "horizon") else len(control)
    values = _simulate(coeffs, control, horizon, size, precision)
    return WaveField(values=values, n_space=size, horizon=horizon)


def response_vector(coeffs: JacobiCoefficients, length: int,
                    precision: PrecisionMode = PrecisionMode.DOUBLE) -> ResponseVector:
    """Impulse response (r_0, ..., r_{length-1}), r_{t-1} = u_{1,t}.

    Finite coefficient sets are simulated with their own Dirichlet wall,
    which reproduces the semi-infinite response for t <= 2N - 1; deeper
    entries reflect the wall, as they do for the size-N system itself.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    control = BoundaryControl.impulse(length)
    if coeffs.is_finite:
        field = solve_finite(coeffs, coeffs.size, control, length, precision)
    else:
        field = solve_semi_infinite(coeffs, control, length, precision)
    row = field.values[1, 2:length + 2]
    if np.iscomplexobj(row):
        row = row.real
    return ResponseVector(row)


def control_operator(coeffs: JacobiCoefficients, horizon: int,
                     precision: PrecisionMode = PrecisionMode.DOUBLE) -> ControlOperatorMatrix:
    """W_T extracted from one impulse run.

    Time invariance turns every canonical basis control into a shifted
    impulse, so column k of W_T is the impulse snapshot at time k + 1;
    the matrix is upper triangular with diagonal a_0 a_1 ... a_k by the
    finite propagation speed.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    field = _simulate(coeffs, BoundaryControl.impulse(horizon),
                      horizon, horizon, precision)
    w = field[1:horizon + 1, 2:horizon + 2]
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
