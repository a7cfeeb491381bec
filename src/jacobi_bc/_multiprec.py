"""The precision backend: the only module that knows what each mode means.

DOUBLE keeps float64/complex128 ndarrays on numpy and its LAPACK: the
eigenvalues of float blocks (the extremes of every mode and DOUBLE
``sym_eigenvalues``) come from ``np.linalg.eigvalsh``, and the DOUBLE
factorization from ``np.linalg.cholesky``.  EXTENDED lifts values to
object arrays of mpf from a private mpmath context fixed at EXTENDED_DPS
digits, and RATIONAL to object arrays of Fraction, exact wherever no root
or eigenvalue is needed.  Hankel and connecting matrices of rapidly
growing coefficient families span hundreds of orders of magnitude,
putting their smallest eigenvalues far below the float64 noise floor
(~eps * ||matrix||); the object modes exist for them.

An mpf computes in the context it belongs to, so EXTENDED values carry
their 50 digits into every module with no precision switch at the call
site, and the package never reads or changes ``mpmath.mp``.  A caller's
mpf passed through ``lift`` is re-homed into the private context with its
mantissa kept.

The pipeline modules write each step once, independent of dtype, on the
steps this module provides: the one number table by which a value enters
a mode (``_ENTRY``, applied by ``_enter``) and the one way out to float64
(``_float64``), lifting values read by ``core``'s one rule (``lift``),
refusing complex values (``require_real``) and the floors, the forward
sweep (``forward_sweep``), Wheeler's recurrence (``modified_chebyshev``),
the eigenvalue sequences read off Q = diag(d)^-1/2 L^-1 for A = L diag(d)
L^T (``orthonormal_min_eigs``, ``leading_eig_extremes``,
``gram_max_eigs``), ``sym_eigenvalues``, one positive-definite
factorization and solve (``pd_factor``, ``mp_pd_solve``, ``gram_solve``)
and the contraction ``dot``.

Float arrays take numpy and its LAPACK, the forward sweep four ufunc
calls a step (``_float_sweep``), and the DOUBLE triangular sweeps a
substitution loop on ``dot``.  Object arrays take four loops on
Python ints, each one for both object modes: the recurrence
(``_integer_rows``), the sweep (``_integer_sweep``), the rows of Q
(``_orthonormal_ints``) and the sums of ``dot`` and the solves
(``_Ints.dot``, ``_sweep``).  They share one integer form, ``_Ints``: a
vector as Python ints over one scale den * 2^exp, with an imaginary part
only when some value is an mpc.  ``_read`` takes numbers into it exactly;
``_normalised`` keeps its ints short, RATIONAL by one gcd per vector,
for the canonical Fractions, EXTENDED by rounding to nearest so that the
smallest nonzero int keeps _ROW_BITS bits, the precision and 64 guard
bits; ``_emitted`` gives back Fractions, mpf or mpc rounded once, or
float64 fields (mantissa, exponent) rounded once, the one way from the
integer form to float64: the frexp tables of the eigenvalue sequences
(the sweep of ``gram_max_eigs``, the rows of Q, ``_frexp_table``) and
the recovered roots (``_root_floats``) take it, with no Fraction or mpf
made.  The Krein solve takes W_T from the sweep in it too: each cell
rounded once to EXTENDED on its slice's ints (``_rounded``), and its
sweeps subtract and divide on mpf fields, with no mpf or mpc made but
the solution.  Moment recovery reads its moments into it once
(``_int_form``), and both its runs of the rows take them and their
converted response, rounded once (``_mode_rounded``).  In the integer
form an EXTENDED value keeps 64 bits more than an mpf and is rounded
once where mpf arithmetic rounds at every step, but the ints span the
exponent range of the vector, which has no bound for mpf values, and
so does the cost.  A sum of ``dot`` is rounded once
where numpy's object ``@`` rounds after every product and add; float
and Fraction operands keep ``@`` and its bits.

In products of an object array with an mpf scalar the array goes on the
left: an mpf on the left makes mpmath format the whole array for an
error message before numpy's reflected operator takes over.

mpmath is imported, and the EXTENDED context built, by the first read of
an attribute of ``_EXTENDED`` (``_load_extended``): DOUBLE work, and
RATIONAL work that stays in Fractions, never loads it.  The load holds a
lock and runs once, since a second context would make a second pair of
mpf types, whose values ``mode_of`` and ``dot`` would not take for
EXTENDED ones.  Before it, ``_EXTENDED`` is a stand-in, _OWN_TYPES is
empty, and ``_MPF``, ``_MPC``, ``_ROW_BITS``, ``normalize``,
``round_nearest``, ``from_float`` and ``fzero`` are None.  No other gate
is needed: a value of the context exists only after the load, and every
object path reads an attribute of ``_EXTENDED`` (``_enter``, which reads
``make_mpf`` before it calls ``from_float`` or ``_round``, ``_read``
through ``convert``, ``solve_scalar``, ``_emitted`` for mpf, and
``_round``, which reads the precision first) before it uses one of
those names.  So RATIONAL work loads mpmath at its first rounding to
EXTENDED, such as the lift of its coefficients for an eigenvalue table
(``_eigen_mode``), and not before: its gamma and its recovered roots
leave for float64 with none.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from heapq import merge
from operator import add, mul

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (ComplexDataError, ConditioningError, PrecisionMode,
                   _data_head, _read_array, sequence_values)

EXTENDED_DPS = 50


class _Unloaded:
    """``_EXTENDED`` until mpmath is loaded: reading an attribute loads it
    (``_load_extended``) and reads the context's."""

    def __getattr__(self, name):
        return getattr(_load_extended(), name)


_EXTENDED = _Unloaded()
# Bound with the context by ``_load_extended``; no value is of _OWN_TYPES
# before it runs.
_MPF = _MPC = fzero = from_float = normalize = round_nearest = None
mpf_div = mpf_sub = None
_ROW_BITS = None
_OWN_TYPES = ()
_LOAD_LOCK = threading.Lock()


def _load_extended():
    """The EXTENDED context at EXTENDED_DPS digits, imported and built by
    the first call and kept: one per process (see the module docstring)."""
    global _EXTENDED, _MPF, _MPC, _OWN_TYPES, _ROW_BITS
    global fzero, from_float, mpf_div, mpf_sub, normalize, round_nearest
    with _LOAD_LOCK:
        if isinstance(_EXTENDED, _Unloaded):
            from mpmath import MPContext
            from mpmath.libmp import (fzero, from_float, mpf_div, mpf_sub,
                                      normalize, round_nearest)
            context = MPContext()
            context.dps = EXTENDED_DPS
            _MPF, _MPC = context.mpf, context.mpc
            _OWN_TYPES = (_MPF, _MPC)
            # Every nonzero entry of an EXTENDED integer vector keeps at
            # least this many bits: the precision and 64 guard bits.
            _ROW_BITS = context.prec + 64
            _EXTENDED = context    # last: a reader of it finds the rest bound
    return _EXTENDED

# Double-precision eigenvalues below this multiple of eps * ||block|| are noise.
NOISE_FLOOR_FACTOR = 1e3

_RESIDUAL_TOL = 1e-10
_REFINE_STEPS = 5

# How a number of each kind (``_kind``, by type in _KINDS) enters each mode:
# kept, read exactly, rounded once to nearest or by its two parts; a mode
# with no cell refuses it, and RATIONAL a float inf or NaN (``_enter``).
_KEEP, _EXACT, _ROUND, _PARTS = "keep", "read exactly", "round once", "parts"
_ENTRY = {(kind, mode): rule for kind, rules in {
    #          DOUBLE  EXTENDED RATIONAL
    int:      (_ROUND, _ROUND, _EXACT),
    float:    (_KEEP, _EXACT, _EXACT),
    Fraction: (_ROUND, _ROUND, _KEEP),
    "mpf":    (_ROUND, _KEEP, None),
    complex:  (_PARTS, _PARTS, None),
}.items() for mode, rule in zip(PrecisionMode, rules) if rule}
_KINDS = {int: int, bool: int, float: float, np.float64: float,
          Fraction: Fraction, complex: complex, np.complexfloating: complex}
_DOUBLE = PrecisionMode.DOUBLE    # read once: an Enum attribute read is slow


def _kind(x) -> tuple:
    """(kind, number): the row of x in _ENTRY, None for no number, and the
    number x holds.  A numpy scalar holds its bool or int, the Fraction of
    a finite float, or the float of an inf or NaN; any other value holds
    itself, an mpf of any context of kind "mpf"."""
    kind = _KINDS.get(type(x))
    if kind is not None:
        return kind, x
    if isinstance(x, (np.integer, np.bool_)):
        return _kind(x.item())
    if isinstance(x, np.floating):    # but a float64, which is a float
        return ((Fraction, Fraction(*x.as_integer_ratio())) if np.isfinite(x)
                else (float, float(x)))
    if hasattr(x, "_mpf_"):
        return "mpf", x
    if hasattr(x, "_mpc_"):
        return complex, x
    return next((kind for cls, kind in _KINDS.items() if isinstance(x, cls)),
                None), x    # a numpy complex, a subclass of a number, or None


_BEYOND_DOUBLE = ("a value exceeds double precision (about 1.8e308); use "
                  "PrecisionMode.EXTENDED (--precision extended)")


def _enter(x, precision: PrecisionMode, refusal: str = _BEYOND_DOUBLE,
           *names):
    """x as a number of ``precision`` by its cell of _ENTRY, or TypeError
    where it has none.  DOUBLE refuses a value it rounds to +-inf with
    ConditioningError ``refusal.format(*names)``, and RATIONAL a float inf
    or NaN with ConditioningError; EXTENDED reads a float off its fields,
    as ``mpf(x)`` does after its argument dispatch."""
    if type(x) is float and precision is _DOUBLE:
        return x    # the hottest cell: a float that DOUBLE keeps
    kind, number = _KINDS.get(type(x)), x
    if kind is None:
        kind, number = _kind(x)
    rule = _ENTRY.get((kind, precision))
    if rule is None:
        raise TypeError(f"cannot use {type(x).__name__} value in "
                        f"{precision.value} mode")
    if rule is _PARTS:
        re, im = (_enter(part, precision, refusal, *names)
                  for part in (number.real, number.imag))
        return complex(re, im) if precision is _DOUBLE else _EXTENDED.make_mpc(
            (re._mpf_, im._mpf_))
    if precision is _DOUBLE:
        value = _float64(number)
        if rule is _ROUND and math.isinf(value):
            raise ConditioningError(refusal.format(*names))
        return value
    if precision is PrecisionMode.RATIONAL:
        try:
            return number if rule is _KEEP else Fraction(number)
        except (OverflowError, ValueError):    # a float inf or NaN
            raise ConditioningError("a value is inf or NaN, which rational "
                                    "mode cannot hold") from None
    return _EXTENDED.make_mpf(    # read first: it binds from_float
        number._mpf_ if rule is _KEEP else from_float(number)
        if rule is _EXACT else _round(number.numerator, 0, number.denominator))


def _float64(values):
    """A number, an array or _Ints as float64, the one way out: an exact
    int or Fraction beyond float64 gives +-inf, as an overflowed float
    does; _Ints of den 1 by their fields, as float() rounds their mpf."""
    if isinstance(values, _Ints) and values.den == 1:
        fields = _emitted(values, float)
        with np.errstate(over="ignore", under="ignore"):
            return np.ldexp(np.array([m for m, _ in fields]),
                            np.array([e for _, e in fields], dtype=int))
    if isinstance(values, _Ints):
        values = np.array(_emitted(values, Fraction), dtype=object)
    try:
        return (values.astype(float) if isinstance(values, np.ndarray)
                else float(values))
    except OverflowError:    # an exact int or Fraction beyond float64
        if isinstance(values, np.ndarray):
            return np.vectorize(_float64, otypes=[float])(values)
        return math.inf if values > 0 else -math.inf


def _root_floats(values: np.ndarray) -> np.ndarray:
    """sqrt of the positive ``values`` as float64, the root taken before
    a value leaves its arithmetic: an object value with the float64
    fields (m, e) of ``_emitted`` gives sqrt(m 2^(e mod 2)) 2^(e div 2),
    so a root that float64 holds is finite even where its square is not,
    and has the bits of sqrt(float(value)) wherever both are normal
    floats.  A float array takes np.sqrt."""
    if values.dtype != object:
        return np.sqrt(values)
    fields = [_emitted(_read([x]), float)[0] for x in values.tolist()]
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp([math.sqrt(math.ldexp(m, e & 1)) for m, e in fields],
                        [e >> 1 for _, e in fields])


def lift(values, precision: PrecisionMode) -> np.ndarray:
    """``values``, read by ``core._read_array``, as a new array (no view)
    of float64 (complex128 for a complex kind), mpf or Fraction, each value
    entered by ``_enter`` (tolist() makes numpy scalars Python numbers);
    a DOUBLE array of a dtype that casts to complex128 safely casts."""
    arr = _read_array(values)
    if precision is PrecisionMode.DOUBLE and np.can_cast(arr.dtype, complex):
        return arr.astype(complex if np.iscomplexobj(arr) else float,
                          copy=arr is values or arr.base is not None)
    own = _OWN_TYPES if precision is PrecisionMode.EXTENDED else ()
    values = [v if type(v) in own else _enter(v, precision)
              for v in arr.ravel().tolist()]
    return np.array(values, None if precision is PrecisionMode.DOUBLE
                    else object).reshape(arr.shape)


def lift_ints(ints: list, precision: PrecisionMode) -> np.ndarray:
    """Exact ints as the coefficients of a combination of values of
    ``precision``: float64 in DOUBLE, by ``lift``, and the ints themselves
    in the object modes, where an int times an mpf rounds once and times
    a Fraction stays exact."""
    if precision is PrecisionMode.DOUBLE:
        return lift(ints, precision)
    return np.array(ints, dtype=object)


def require_real(values, name: str, first: int = 0):
    """``values`` (a list or 1-D array) as they are, or ComplexDataError
    naming name_{first + k}, the first entry of a complex kind with a
    nonzero imaginary part, else the first of a complex kind."""
    if isinstance(values, np.ndarray) and values.dtype.kind not in "cO":
        return values
    if {complex, None} & set(map(_KINDS.get, map(type, values))):
        typed = [k for k, x in enumerate(values) if _kind(x)[0] is complex]
        if typed:
            at = next((k for k in typed if values[k].imag != 0), typed[0])
            raise ComplexDataError(f"{name}_{first + at} = {np.asarray(values)[at]}"
                                   " is complex; it must be real")
    return values


def mode_of(values: np.ndarray) -> PrecisionMode:
    """The mode whose numbers the array ``values`` holds: DOUBLE for a
    float or complex array, EXTENDED for an object array holding an mpf
    or mpc of the EXTENDED context, else RATIONAL."""
    if values.dtype != object:
        return PrecisionMode.DOUBLE
    return (PrecisionMode.EXTENDED
            if any(type(x) in _OWN_TYPES for x in values.flat)
            else PrecisionMode.RATIONAL)


def _finite(arr: np.ndarray) -> np.ndarray:
    """``arr``, refused with ConditioningError when it is a float array
    holding inf or NaN: the values that overflowed float64 on the way to
    it, which neither LAPACK nor the recovery recurrence can use."""
    if arr.dtype != object and not np.isfinite(arr).all():
        raise ConditioningError(
            "a computed value is beyond double precision (inf or NaN); use "
            "PrecisionMode.EXTENDED (--precision extended)")
    return arr


def cell_bytes(precision: PrecisionMode) -> int:
    """Estimated bytes of one array cell of the mode's number type.

    DOUBLE counts one float64 (a complex array takes twice that).  An
    object cell counts its 8-byte pointer plus 48 bytes for the number,
    the size of a Fraction; an mpf with its mantissa takes more.
    """
    if precision is PrecisionMode.DOUBLE:
        return np.dtype(float).itemsize
    return 8 + 48


def noise_floor(norm, precision: PrecisionMode):
    """Eigenvalues of a block with spectral norm ``norm`` (scalar or
    array) that lie below this are rounding noise of the mode's
    eigensolver."""
    unit = (NOISE_FLOOR_FACTOR * np.finfo(float).eps
            if precision is PrecisionMode.DOUBLE else 10.0 ** (5 - EXTENDED_DPS))
    return unit * np.maximum(norm, 1.0)


def above_noise(mins, maxs, precision: PrecisionMode) -> np.ndarray:
    """Mask of the blocks whose smallest eigenvalue clears the noise floor
    of the block norm max(|min|, |max|)."""
    mins, maxs = np.abs(mins), np.abs(maxs)
    return mins >= noise_floor(np.maximum(mins, maxs), precision)


def pivot_floor(precision: PrecisionMode) -> float:
    """Smallest ratio sqrt(sigma_kk / max sigma) of the recovery pivots
    sigma_kk = int p_k^2 dmu (the LDL^T pivots of C_T or S_T) accepted.

    Below 1e-10 float64 data no longer determine the coefficients; the
    object modes carry their own digits and are not guarded.
    """
    return 1e-10 if precision is PrecisionMode.DOUBLE else 0.0


def sym_eigenvalues(matrix, precision: PrecisionMode) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending, as float64.

    DOUBLE uses LAPACK and refuses inf or NaN entries with
    ConditioningError, as ``pd_factor`` does; EXTENDED (and RATIONAL,
    whose eigenvalue work falls back to floating point) uses mpmath at
    EXTENDED_DPS digits so that tiny eigenvalues of huge matrices keep
    their leading digits.
    """
    if precision is PrecisionMode.DOUBLE:
        return np.linalg.eigvalsh(_finite(lift(matrix, precision)))
    lifted = _EXTENDED.matrix(lift(matrix, PrecisionMode.EXTENDED).tolist())
    ev = _EXTENDED.eigsy(lifted, eigvals_only=True)
    return np.array(sorted(float(v) for v in ev))


def modified_chebyshev(nu, size: int, shift: int, precision: PrecisionMode):
    """Wheeler's modified Chebyshev algorithm on nu_l = int pi_l dmu,
    with pi_{l+1} = x pi_l - shift pi_{l-1}: U_l(x/2) for shift 1
    (responses), x^l for shift 0 (moments).

    Returns, in the arithmetic of ``precision``, the pivots sigma_kk =
    int p_k^2 dmu (k < size; the LDL^T pivots of C or S) and the
    recurrence p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1} of the monic
    orthogonal p_k: alpha_k (k < size - 1) and beta_k = sigma_kk /
    sigma_{k-1,k-1} (k < size, beta_0 = 0).  Row k holds sigma_{k,l} =
    int p_k pi_l dmu, l = k..2 size - 2 - k.  DOUBLE runs the rows as
    float64 arrays (``_array_rows``), the object modes on the integer
    form (``_integer_rows``).  Raises ConditioningError on an inf
    or NaN value (for DOUBLE, on an overflowed row, before its pivot is
    tested) and np.linalg.LinAlgError on a pivot that is not positive.
    ``nu`` may be the _Ints of lifted object data (``_int_form``).
    """
    pivots, alpha, beta = [], [], [0]
    if isinstance(nu, _Ints):
        _integer_rows(nu, _number_kind(precision), size, shift, pivots,
                      alpha, beta)
    else:
        _wheeler_rows(_lifted_nu(nu, size, shift, precision), size, shift,
                      pivots, alpha, beta)
    return np.array(pivots), np.array(alpha), np.array(beta)


def _lifted_nu(nu, size: int, shift: int,
               precision: PrecisionMode) -> np.ndarray:
    """nu_0..nu_{2 size - 2} lifted: the one read of their data by the
    recurrence routes and the block builders.  A size below 1, a complex
    entry (ComplexDataError, see ``require_real``) or too short a
    sequence raises, naming the response r (shift 1) or the moments s
    (shift 0)."""
    if size < 1:
        raise ValueError("horizon must be >= 1")
    kind, name = ("response data", "r") if shift else ("moments", "s")
    values = require_real(sequence_values(nu), name)
    return lift(_data_head(values, 2 * size - 1, kind), precision)


def _wheeler_rows(row: np.ndarray, size: int, shift: int, pivots: list,
                  alpha: list, beta: list) -> None:
    """Wheeler's rows k = 0..size-1 on the lifted nu: appends sigma_kk,
    alpha_k (k < size - 1) and beta_k (k >= 1) to the lists, which start
    empty, empty and [0].  A bad row raises as ``modified_chebyshev``
    describes, and the lists keep the rows before it."""
    if row.dtype != object:
        return _array_rows(row, size, shift, pivots, alpha, beta)
    _integer_rows(_read(row.tolist()), _number_kind(mode_of(row)), size,
                  shift, pivots, alpha, beta)


def _int_form(values: np.ndarray):
    """A lifted object array read once into _Ints; a float array, or one
    holding inf or NaN (which ``_read`` refuses), as it is."""
    try:
        return _read(values.tolist()) if values.dtype == object else values
    except ConditioningError:
        return values


def _number_kind(precision: PrecisionMode):
    """The kind ``_emitted`` gives an object mode's numbers in."""
    return Fraction if precision is PrecisionMode.RATIONAL else _EXTENDED.mpf


def _mode_rounded(vec: _Ints, precision: PrecisionMode) -> _Ints:
    """The exact real ``vec`` rounded once to EXTENDED (``_rounded``), or
    as it is in RATIONAL."""
    return vec if precision is PrecisionMode.RATIONAL else _rounded(vec)


def _plus_basis_shift(acc: np.ndarray, row: np.ndarray, shift: int) -> None:
    """acc += shift * row on float rows for the basis shift 0 or 1, with
    no product where it changes no bit: 1 * row is row itself.  0 * row
    is kept, since x + (-0.0) and x + 0.0 differ when x is -0.0."""
    if shift:
        acc += row
    else:
        acc += row * 0


def _array_rows(row: np.ndarray, size: int, shift: int, pivots: list,
                alpha: list, beta: list, checked: bool = False) -> None:
    """``_wheeler_rows`` on a float64 row.

    Row k + 1 is (sigma_{k,l+1} - sigma_{k,l} alpha_k) - sigma_{k-1,l}
    beta_k, then + shift sigma_{k,l-1} as ``_plus_basis_shift`` adds it.
    Rows k - 1, k and k + 1 rotate through three preallocated rows, the
    products go into a fourth, and alpha_k, beta_k and sigma_kk are read
    off as Python floats, which round as float64 does, so a row of shift
    1 is five ufunc calls with positional outs and the same bits.

    Unless ``checked``, a row is not tested for inf or NaN: only the
    scalars read off it are, sigma_kk, alpha_k and beta_k, once the rows
    are done.  That misses nothing, as sigma_{k+1,l-1} takes sigma_{k,l}
    with coefficient 1 and a sum with an inf or NaN term is inf or NaN:
    an entry of row k that is not finite reaches a later sigma_jj or
    sigma_{j,j+1}, hence alpha_j.  When one of those scalars is not
    finite, or a pivot is not positive, the rows run again from the
    start ``checked``, every row tested by ``_finite``: that run raises
    the error of the first bad row and leaves the lists as they were
    before it.
    """
    m = row.size
    # rows k - 1 (sigma_{-1,l} = 0 for k = 0), k and k + 1, and the products
    below, cur, nxt, prod = np.zeros((4, m + 2))
    cur[:m] = row
    # alpha_{k-1}, beta_{k-1} and sigma_{k-1,k-1} as Python floats
    a, b, last, ratio = 0, 0, 1, 0
    multiply, subtract, add = np.multiply, np.subtract, np.add
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # see above
            for k in range(size):
                if k:
                    m -= 2
                    new, tmp, term = nxt[:m], prod[:m], cur[:m]
                    multiply(cur[1:m + 1], a, tmp)
                    subtract(cur[2:m + 2], tmp, new)
                    multiply(below[2:m + 2], b, tmp)
                    subtract(new, tmp, new)
                    add(new, term if shift else multiply(term, 0, tmp), new)
                    below, cur, nxt = cur, nxt, below
                    b = cur.item(0) / last
                    beta.append(b)
                if checked:
                    _finite(cur[:m])
                last = cur.item(0)
                if not last > 0:
                    raise np.linalg.LinAlgError(f"pivot {k} is not positive")
                pivots.append(last)
                if k < size - 1:
                    step = cur.item(1) / last
                    a = step - ratio
                    alpha.append(a)
                    ratio = step
        if checked or np.isfinite(pivots + alpha + beta).all():
            return
    except np.linalg.LinAlgError:
        if checked:
            raise
    del pivots[:], alpha[:], beta[1:]
    _array_rows(row, size, shift, pivots, alpha, beta, checked=True)


class _Ints:
    """The integer form: value k is (re[k] + i im[k]) / den * 2^exp
    exactly; ``im`` is None while every value is real, den is 1 but for
    Fractions, and exp may be None only while every value is zero."""

    __slots__ = ("re", "im", "den", "exp")

    def __init__(self, re: list, im=None, den: int = 1, exp=None):
        self.re, self.im, self.den, self.exp = re, im, den, exp

    def parts(self, count: int) -> list:
        """[re], or [re, im] for two, im zeros for real values."""
        return [self.re, self.im or [0] * len(self.re)][:count]

    def __getitem__(self, index: slice) -> "_Ints":
        return _Ints(self.re[index], None if self.im is None else
                     self.im[index], self.den, self.exp)

    def extend(self, values) -> None:
        """Append ``values``, read by ``_read``, on the finer scale."""
        new = _read(values)
        exp = (new.exp if self.exp is None else self.exp if new.exp is None
               else min(self.exp, new.exp))
        den = self.den if self.den == new.den else math.lcm(self.den, new.den)
        for vec in (self, new):
            up = 0 if vec.exp is None else vec.exp - exp
            if up or den != vec.den:
                factor = den // vec.den
                vec.re = [x * factor << up for x in vec.re]
                vec.im = vec.im and [x * factor << up for x in vec.im]
            vec.den, vec.exp = den, exp
        if self.im is not None or new.im is not None:
            self.im = self.im or [0] * len(self.re)
            self.im += new.im or [0] * len(new.re)
        self.re += new.re

    def push(self, parts) -> None:
        """Append the value with the mpf fields ``parts`` (re, or re and
        im) to a vector of den 1, exactly, on the finer scale."""
        exps = [e for _, m, e, _ in parts if m]
        if self.exp is not None:
            exps.append(self.exp)
        low = min(exps, default=None)
        if self.exp is not None and low < self.exp:
            up = self.exp - low
            self.re = [x << up for x in self.re]
            self.im = self.im and [x << up for x in self.im]
        self.exp = low
        re, *im = [(-m if s else m) << e - low if m else 0
                   for s, m, e, _ in parts]
        if im and self.im is None:
            self.im = [0] * len(self.re)
        self.re.append(re)
        if self.im is not None:
            self.im.append(im[0] if im else 0)

    def dot(self, other: "_Ints"):
        """sum_k self_k other_k over the shorter of the two, exact and
        rounded once: an mpc when either holds an im, else an mpf."""
        real, imag = sum(map(mul, self.re, other.re)), 0
        if other.im is not None:
            imag += sum(map(mul, self.re, other.im))
        if self.im is not None:
            imag += sum(map(mul, self.im, other.re))
            if other.im is not None:
                real -= sum(map(mul, self.im, other.im))
        exp, den = (self.exp or 0) + (other.exp or 0), self.den * other.den
        if self.im is None and other.im is None:    # one value, one _round
            return _EXTENDED.make_mpf(_round(real, exp, den))
        return _EXTENDED.make_mpc((_round(real, exp, den),
                                   _round(imag, exp, den)))


def _read(values) -> _Ints:
    """``values`` as one _Ints, exactly: ints and Fractions alone as they
    are, mpf and mpc off their fields, and any other number among these
    (float, complex, Fraction) as ``_EXTENDED.convert`` makes it, as
    mpmath's ``fdot`` takes it; inf and NaN raise ConditioningError.  A
    lone mpf or mpc, which ``_Ints.extend`` takes at every step of the
    EXTENDED moment transforms, goes straight to its fields."""
    lone = values[0] if len(values) == 1 else None
    if type(lone) is _MPF:
        flat, complex_ = (lone._mpf_,), False
    elif type(lone) is _MPC:
        flat, complex_ = lone._mpc_, True
    else:
        kinds = set(map(type, values))
        if kinds <= {int}:
            return _Ints(list(values), None, 1, 0 if values else None)
        if kinds <= {int, Fraction}:
            den = math.lcm(*[x.denominator for x in values])
            return _Ints([x.numerator * (den // x.denominator)
                          for x in values], None, den, 0)

        def fields(x):    # the mpf fields of the real and the imaginary part
            cls = type(x)
            if cls is _MPF:
                return x._mpf_, None
            if cls is _MPC:
                return x._mpc_
            return fields(_EXTENDED.convert(x))

        if kinds == {_MPF}:
            flat, imags = [x._mpf_ for x in values], ()
        else:
            flat, imags = zip(*map(fields, values))
        complex_ = any(imags)
        if complex_:
            flat += tuple([im or fzero for im in imags])
    exps = [e for _, m, e, _ in flat if m]
    if len(exps) < len(flat) and any([e for _, m, e, _ in flat if not m]):
        raise ConditioningError(    # the fields of inf and NaN
            "a value is inf or NaN, which the integer form cannot hold")
    exp = min(exps) if exps else None
    ints = [(-m if s else m) << e - exp if m else 0 for s, m, e, _ in flat]
    if not complex_:
        return _Ints(ints, None, 1, exp)
    return _Ints(ints[:len(values)], ints[len(values):], 1, exp)


def _unrounded(man: int, exp) -> tuple:
    """The mpf fields of man * 2^exp, exactly."""
    tz = (man & -man).bit_length() - 1
    return (int(man < 0), abs(man) >> tz, exp + tz,
            man.bit_length() - tz) if man else fzero


def _normalised(vec: _Ints, kind, divide: bool = False) -> _Ints:
    """``vec`` with short ints for numbers of ``kind`` (see ``_emitted``):
    RATIONAL divides them and den by their gcd; EXTENDED rounds them to
    nearest so that the smallest nonzero one keeps _ROW_BITS bits (or one
    more), to ``divide`` after dividing them exactly by den."""
    ints, den, exp = vec.re if vec.im is None else vec.re + vec.im, 1, vec.exp
    if kind is Fraction:
        den = math.gcd(vec.den, *ints)
        ints, den = [x // den for x in ints], vec.den // den
    else:
        least = min(map(int.bit_length, filter(None, ints)), default=_ROW_BITS)
        if divide:
            keep = _ROW_BITS + vec.den.bit_length() - least
            up, down = max(keep, 0) + 1, vec.den << max(-keep, 0)
            ints = [((x << up) // down + 1) >> 1 for x in ints]
            exp -= keep
        elif least > _ROW_BITS:
            drop = least - _ROW_BITS
            half = 1 << drop - 1
            ints, exp = [(x + half) >> drop for x in ints], exp + drop
        else:
            return vec
    if vec.im is None:
        return _Ints(ints, None, den, exp)
    return _Ints(ints[:len(vec.re)], ints[len(vec.re):], den, exp)


def _quotient(man: int, den: int):
    """(quo, sticky, extra), signed as man: quo is man / den * 2^extra cut
    toward zero, of at least _ROW_BITS bits, and sticky is 2 quo with a
    bit for a nonzero remainder, which rounds as the exact quotient does."""
    extra = _ROW_BITS - man.bit_length() + den.bit_length()
    quo, rem = divmod(abs(man) << max(extra, 0), den << max(-extra, 0))
    sticky = quo << 1 | (rem != 0)
    return (-quo, -sticky, extra) if man < 0 else (quo, sticky, extra)


def _round(man: int, exp: int, den: int = 1):
    """The mpf fields of man / den * 2^exp rounded to nearest once, a den
    > 1 divided out by ``_quotient``."""
    prec = _EXTENDED.prec    # first: it loads the context of the names below
    if den != 1:
        _, man, extra = _quotient(man, den)
        exp -= extra + 1
    if man < 0:
        return normalize(1, -man, exp, (-man).bit_length(), prec,
                         round_nearest)
    return normalize(0, man, exp, man.bit_length(), prec, round_nearest)


def _emitted(vec: _Ints, kind, zero=None, mpc: int = -1) -> list:
    """``vec`` as Fractions (exp 0); as the float64 fields (m, e) of each
    real value, rounded once to nearest, ties to even, as float() and true
    division round: m in [1/2, 1], 1.0 only where the rounding carries,
    and (0.0, 0) for a zero; or as _MPF, each rounded once, an mpc where
    ``vec`` has an im and bit k of ``mpc`` is set, ``zero`` if given for
    a real zero.  Only _MPF reads the EXTENDED context."""
    re, den, exp = vec.re, vec.den, vec.exp or 0
    if kind is Fraction:
        return [Fraction(x, den) for x in re]
    if kind is float and den == 1:
        return [(math.ldexp(x, -b) if b < 1024 else x / (1 << b),
                 exp + b if b else 0)
                for x, b in zip(re, map(int.bit_length, re))]
    if kind is float:    # 2^(e-1) <= |x| / den < 2^e
        fields = []
        for x in re:
            e = x.bit_length() - den.bit_length()
            e += (abs(x) >> e if e >= 0 else abs(x) << -e) >= den
            fields.append((x / (den << e) if e >= 0 else (x << -e) / den,
                           exp + e) if x else (0.0, 0))
        return fields
    make_mpf = _EXTENDED.make_mpf
    if vec.im is None:
        return [make_mpf(_round(x, exp, den)) if x or zero is None else zero
                for x in re]
    return [_EXTENDED.make_mpc((_round(x, exp, den), _round(y, exp, den)))
            if mpc >> k & 1 else make_mpf(_round(x, exp, den))
            if x or zero is None else zero
            for k, (x, y) in enumerate(zip(re, vec.im))]


def _integer_rows(first: _Ints, kind, size: int, shift: int, pivots: list,
                  alpha: list, beta: list) -> None:
    """``_wheeler_rows`` on the _Ints of a row of ``kind`` (Fraction or
    mpf), in the fraction-free manner of Bareiss (Math. Comp. 22 (1968)).

    Row k is sigma_{k,l} = num[l - k] / den * 2^exp.  With alpha_k = p /
    q * 2^ea and beta_k = u / v * 2^eb (``_ratio``), the next row is

        q v den_below 2^(exp - low) (num[i+2] + shift num[i])
        - p v den_below 2^(exp + ea - low) num[i+1]
        - u q den 2^(exp_below + eb - low) num_below[i+2]

    over den q v den_below, times 2^low, where low is the smallest of the
    three exponents, then ``_normalised``.  A first factor that is a
    power of two (always in EXTENDED: q = v = den = 1) shifts.
    """
    num, den, exp = first.re, first.den, first.exp
    # sigma_{-1,l} = 0
    below, below_den, below_exp = [0] * (len(num) + 2), 1, 0
    last = 0, 1    # sigma_{k-1,k} / sigma_{k-1,k-1}, 0 for k = 0
    for k in range(size):
        if k:
            (p, q, ea), (u, v, eb) = step_alpha, step_beta
            low = min(exp, exp + ea, below_exp + eb)
            f1 = q * v * below_den << (exp - low)
            f2 = p * v * below_den << (exp + ea - low)
            f3 = u * q * den << (below_exp + eb - low)
            tops = map(add, num, num[2:]) if shift else num[2:]
            if f1 & (f1 - 1):
                nxt = [f1 * top - f2 * n1 - f3 * m2
                       for top, n1, m2 in zip(tops, num[1:], below[2:])]
            else:
                up = f1.bit_length() - 1
                nxt = [(top << up) - f2 * n1 - f3 * m2
                       for top, n1, m2 in zip(tops, num[1:], below[2:])]
            new = _normalised(_Ints(nxt, None, den * q * v * below_den, low),
                              kind)
            below, below_den, below_exp = num, den, exp
            num, den, exp = new.re, new.den, new.exp
            out, step_beta = _ratio(num[0] * below_den, den * below[0],
                                    exp - below_exp, kind)
            beta.append(out)
        else:
            step_beta = 0, 1, 0
        if not num[0] > 0:
            raise np.linalg.LinAlgError(f"pivot {k} is not positive")
        pivots.append(_emitted(_Ints(num[:1], None, den, exp), kind)[0])
        if k < size - 1:
            rp, rq = last
            out, step_alpha = _ratio(num[1] * rq - rp * num[0], num[0] * rq,
                                     0, kind)
            alpha.append(out)
            last = num[1], num[0]


def _ratio(n: int, d: int, e: int, kind):
    """n / d * 2^e (d > 0) as the recurrence returns it, and as the ratio
    (p, q, e) the next row takes: the Fraction's terms, or the EXTENDED
    quotient of ``_quotient``, whose division the value rounds too; 0
    over 2^0 for a zero alpha_k."""
    if kind is Fraction:
        value = Fraction(n, d)
        terms = _read([value])
        return value, (terms.re[0], terms.den, 0)
    quo, sticky, extra = _quotient(n, d)
    value = _EXTENDED.make_mpf(_round(sticky, e - extra - 1))
    return value, (quo, 1, e - extra if n else 0)


# Float sweeps round the updated width up to a multiple of this many sites.
_WIDTH_QUANTUM = 64


def forward_sweep(ctrl, a, b, out) -> None:
    """The forward sweep of ``dynamics`` and ``gram_max_eigs``: u_{n,t+1}
    into out[n-1, t] for the watched sites n = 1..len(out) and t <
    len(ctrl), from the lifted control, a_0..a_{N-1} and b_1..b_N of the
    sites n = 1..N = len(a).  The site N + 1 is identically zero: the
    causality cone for the semi-infinite system, the Dirichlet wall for
    the finite one.  Float values run ``_float_sweep``, object values
    ``_integer_sweep``, whose ``out`` may be a frexp table; step t of
    either updates the sites 1..``_cone_width``."""
    sweep = _integer_sweep if a.dtype == object else _float_sweep
    sweep(ctrl, a, b, out)


def _cone_width(t: int, n_space: int, watched: int, horizon: int) -> int:
    """The k of the sites 1..k that step t of a forward sweep updates:
    reached, and able to reach a watched site 1..watched by the horizon."""
    return min(t + 1, n_space, watched + horizon - t - 1)


def _float_sweep(ctrl, a, b, out: np.ndarray) -> None:
    """``forward_sweep`` on float values, where the cost of a step is
    numpy dispatch, not arithmetic.

    The rows P = (a_{n-1}, b_n, a_n) of the sites n = 1..N, whose last
    a_n is the zero of the ghost site, are built once.  Two rolling
    slices hold the sites 0..N+1 at times t-1 and t; step t updates the
    sites 1..k of ``_cone_width``, k rounded up to a multiple of
    _WIDTH_QUANTUM when every a_n is positive and every coefficient
    finite, as validated ones are: the extra cells lie past the
    wavefront, where a sum over zeros keeps them +0.0, or outside the
    watched sites' dependence cone.  Other rows, which could put -0.0 or
    NaN past the wavefront, keep the exact width.  The views are cut once
    per run of one width (``_runs``) and swap slices after each step, so
    a step is the control, four ufunc calls with positional outs and the
    watched read: P times the strided rows (u_{n-1}, u_n, u_{n+1}), P_2 +
    P_0, + P_1, and - u_{n,t-1} into the older slice, the operands and
    order of the full-field update, so each cell an output reads has its
    bits.  One watched site (``response_vector``) is collected as Python
    floats, written once.
    """
    n_space, horizon, watched = len(a), len(ctrl), len(out)
    coef = np.array([a, b, np.append(a[1:], 0.0)])
    quantum = (_WIDTH_QUANTUM if np.isfinite(coef).all() and (a > 0).all()
               else 1)
    slices = np.zeros((2, n_space + 2), dtype=out.dtype)
    sites = [as_strided(s, (3, n_space), s.strides * 2, writeable=False)
             for s in slices]
    prod = np.empty((3, n_space), dtype=out.dtype)
    single, site, columns = watched == 1, [], iter(out.T)
    keep = site.append
    multiply, add, subtract = np.multiply, np.add, np.subtract
    # Rapidly growing coefficient families overflow float64 inside the
    # cone; those cells hold inf or nan and are returned as they are.
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, k in _runs(horizon, n_space, watched, quantum):
            # slice i holds u_t; the step overwrites u_{t-1} with u_{t+1}
            i = start & 1
            now, before = slices[i], slices[1 - i]
            u, u_before = sites[i][:, :k], sites[1 - i][:, :k]
            new, new_before = before[1:k + 1], now[1:k + 1]
            c, p = coef[:, :k], prod[:, :k]
            p0, p1, p2 = p
            for f in ctrl[start:stop].tolist():
                now[0] = f
                multiply(c, u, p)
                add(p2, p0, p2)
                add(p2, p1, p2)
                subtract(p2, new, new)
                if single:
                    keep(new.item(0))
                else:
                    next(columns)[...] = before[1:watched + 1]
                now, before = before, now
                u, u_before = u_before, u
                new, new_before = new_before, new
    if single:
        out[0] = site


def _runs(horizon: int, n_space: int, watched: int, quantum: int):
    """(start, stop, k): steps start..stop-1 of ``_float_sweep`` update
    the sites 1..k, ``_cone_width`` rounded up to a multiple of
    ``quantum`` (at most n_space), which can change only at t = 0 or
    watched + horizon - 1 modulo ``quantum``: k is evaluated at those
    steps alone."""
    def width(t):
        k = _cone_width(t, n_space, watched, horizon)
        return min(-(-k // quantum) * quantum, n_space)

    start, k = 0, width(0)
    for t in merge(range(quantum, horizon, quantum),
                   range((watched + horizon - 1) % quantum, horizon, quantum)):
        if t > start and width(t) != k:
            yield start, t, k
            start, k = t, width(t)
    yield start, horizon, k


def _integer_sweep(ctrl, a, b, out: np.ndarray) -> None:
    """``forward_sweep`` on object values: Fractions, mpf and mpc.

    The coefficients and the control are read once, and step t updates the
    sites n = 1..k of the cone (``_cone_width``) of a time slice by

        N_{t+1}[n] = f1 (A_n N_t[n+1] + A_{n-1} N_t[n-1] + B_n N_t[n])
                     - f3 N_{t-1}[n]    (+ fc A_0 F_t at n = 1),

    where f1, f3 and fc align the scales of the terms, then
    ``_normalised``.  Site 0 holds 0, for which the control term stands.
    The coefficients are real (``dynamics`` refuses complex ones).  A
    cell is an mpc exactly where mpmath's one-expression step makes one,
    where an mpc control value reaches it (a bit mask per slice).  Sites
    the wave has not reached hold the mode's zero.

    ``out`` may instead be a frexp table (mantissas, exponents), a
    float64 and an int64 array of zeros: each cell of a real control's
    field is then written as its float64 fields (``_emitted``), rounded
    once, with no Fraction or mpf made.  Or, for W_T, _Columns of
    ``watched`` entries: entry t becomes column t as _Ints (``_rounded``).
    """
    table = isinstance(out, tuple)
    n_space, horizon = len(a), len(ctrl)
    watched = len(out[0] if table else out)
    kind = _number_kind(mode_of(a))
    zero = kind(0)
    a, b, ctrl = a.tolist() + [zero], b.tolist(), ctrl.tolist()
    ctrl_mpc = [type(f) is _MPC for f in ctrl]
    parts = 2 if any(ctrl_mpc) else 1
    rows, force = _read(a + b), _read(ctrl)
    cden, cexp, fden, fexp = rows.den, rows.exp, force.den, force.exp
    # the ints of a_{n-1}, a_n and b_n, and the parts of f_t
    below, above, diag = (rows.re[:n_space], rows.re[1:n_space + 1],
                          rows.re[n_space + 1:])
    force = force.parts(parts)
    # per parity of t: the site-indexed ints of each part, their scale,
    # and the mpc mask
    slices = [[[0] * (n_space + 2) for _ in range(parts)] for _ in range(2)]
    scales, masks = [(1, 0), (1, 0)], [0, 0]
    if isinstance(out, np.ndarray):
        out[...] = zero
    for t in range(horizon):
        k = _cone_width(t, n_space, watched, horizon)
        i = t & 1
        cur, older = slices[i], slices[1 - i]
        (du, eu), (dp, ep) = scales[i], scales[1 - i]
        f_t = [part[t] for part in force]
        terms = [(cden * du, cexp + eu), (dp, ep)]
        if any(f_t):
            terms.append((cden * fden, cexp + fexp))
        den = math.lcm(*(d for d, _ in terms))
        low = min(e for _, e in terms)
        f1, f3, *fc = [den // d << (e - low) for d, e in terms]
        new = [[f1 * s - f3 * q for s, q in zip(
                    _site_sums(below, above, diag, part, k), old[1:k + 1])]
               for part, old in zip(cur, older)]
        if fc:    # a_0 f_t, site 1's term of the control at site 0
            for part, f in zip(new, f_t):
                part[0] += fc[0] * below[0] * f
        vec = _normalised(_Ints(*new, den, low) if parts == 2
                          else _Ints(new[0], None, den, low), kind)
        for old, part in zip(older, vec.parts(parts)):
            old[1:k + 1] = part
        scales[1 - i] = vec.den, vec.exp
        if parts == 2:
            near = masks[i] | masks[i] << 1 | masks[i] >> 1 | ctrl_mpc[t] << 1
            masks[1 - i] = (near | masks[1 - i]) & (2 << k) - 2
        m = min(k, watched)
        if table:
            out[0][:m, t], out[1][:m, t] = zip(*_emitted(vec[:m], float))
        elif isinstance(out, _Columns):
            out[t] = _rounded(vec[:m])
        else:
            out[:m, t] = _emitted(vec[:m], kind, zero, masks[1 - i] >> 1)


def _rounded(vec: _Ints) -> _Ints:
    """The real ``vec`` as _Ints of den 1, each value rounded once to
    EXTENDED as its mpf from ``_emitted`` is; on den 1 each int is rounded
    in place, on the slice's scale, to nearest with ties to even."""
    if vec.den != 1:
        column = _Ints([])
        for x in vec.re:
            column.push((_round(x, vec.exp, vec.den),))
        return column
    prec, ints = _EXTENDED.prec, []
    for x in vec.re:
        m, drop = abs(x), x.bit_length() - prec
        if drop > 0:    # + half, less one unless the kept part is odd
            m = (m + (1 << drop - 1) - 1 + (m >> drop & 1)) >> drop << drop
        ints.append(-m if x < 0 else m)
    return _Ints(ints, None, 1, vec.exp)


class _Columns(list):
    """W_T as the object sweep writes it for ``gram_solve``: entry t is
    column t down to row t (``_rounded``)."""


def _gram_out(dtype, horizon: int):
    """What ``forward_sweep`` writes W_T into for ``gram_solve``: a float
    array, or for object values _Columns."""
    return (_Columns([None] * horizon) if dtype == object
            else np.empty((horizon, horizon), dtype))


def _site_sums(below, above, diag, u, k: int) -> list:
    """a_n u_{n+1} + a_{n-1} u_{n-1} + b_n u_n, n = 1..k, from the ints of
    a_{n-1}, a_n and b_n and one part ``u`` of a slice, site-indexed."""
    return [h * u2 + l * u0 + d * u1 for l, h, d, u0, u1, u2 in
            zip(below, above, diag, u[:k], u[1:k + 1], u[2:k + 2])]


def _orthonormal_rows(alpha, root_beta, shift) -> np.ndarray:
    """Q, whose row k holds the coefficients of the orthonormal p_k in the
    basis pi_l, as a float64 array, from the recurrence of the normalized
    form

        sqrt(beta_{k+1}) p_{k+1} = (x - alpha_k) p_k - sqrt(beta_k) p_{k-1}

    with x pi_l = pi_{l+1} + shift pi_{l-1} and p_0 = 1 / sqrt(beta_0),
    in O(size^2) operations.  Jacobi coefficients give alpha_k = b_{k+1}
    and sqrt(beta_k) = a_k (a_0 = 1); Wheeler's recurrence gives
    sqrt(beta_k) = sqrt(sigma_kk / sigma_{k-1,k-1}) and sqrt(beta_0) =
    sqrt(sigma_00).  Each new row is divided by sqrt(beta_{k+1}), so the
    orthonormal coefficients stay in range where the monic ones would
    overflow float64; a row that overflows anyway holds inf or NaN.

    When every alpha_k is zero (b = 0, a symmetric measure), p_k has the
    parity of k, so row k is built on the entries l = k mod 2 alone, with
    no alpha_k product, and the other half stays exact zeros.  Every
    entry built takes the same operations in the same order as on the
    full row; the skipped products only add zeros to them.  The object
    modes build the same rows on Python ints (``_orthonormal_ints``).
    """
    n = root_beta.size
    step = 1 if any(alpha) else 2
    coef = np.full((n, n), root_beta[0] * 0)
    coef[0, 0] = 1 / root_beta[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1):
            lo = (k + 1) % step
            nxt = coef[k + 1, lo:k + 2:step]
            below = len(range(lo, k, step))     # entries l < k
            nxt[1 - lo:] = coef[k, k % step:k + 1:step]
            _plus_basis_shift(nxt[:below], coef[k, lo + 1:k + 1:step], shift)
            if step == 1:
                nxt[:k + 1] -= coef[k, :k + 1] * alpha[k]
            if k:
                nxt[:below] -= coef[k - 1, lo:k:step] * root_beta[k]
            nxt /= root_beta[k + 1]
    return coef


def _orthonormal_table(alpha, root_beta, shift):
    """The frexp table (``_frexp_table``) of Q = ``_orthonormal_rows``:
    float64 rows for float input, and for mpf ``_orthonormal_ints``,
    whose ints go straight into the table, with no mpf made."""
    if root_beta.dtype != object:
        return _frexp_table(_orthonormal_rows(alpha, root_beta, shift))
    rows = _orthonormal_ints(alpha, root_beta, shift)
    n = len(rows)
    mant, exps = np.zeros((n, n)), np.zeros((n, n), dtype=np.int64)
    for k, row in enumerate(rows):
        mant[k, :k + 1], exps[k, :k + 1] = zip(*_emitted(row, float))
    return mant, exps


def _orthonormal_ints(alpha, root_beta, shift) -> list:
    """The rows of ``_orthonormal_rows`` for mpf alpha_k and sqrt(beta_k)
    as _Ints, Q[k, l] = re[l] 2^exp: the numerator (x - alpha_k) p_k -
    sqrt(beta_k) p_{k-1} of row k+1 is formed exactly and divided once
    by sqrt(beta_{k+1}) (``_normalised``), where rows of mpf round up to
    five times per entry; symmetric measures take the parity rows."""
    step = 1 if any(alpha) else 2
    roots, alphas = _read(root_beta.tolist()), _read(alpha.tolist())
    rows, part, low = [], [1], 0    # the numerator of row 0: 1 over 2^0
    for k, root in enumerate(roots.re):
        if k:    # (x - alpha_{k-1}) p_{k-1} - sqrt(beta_{k-1}) p_{k-2}
            cur, p = rows[-1], alphas.re[k - 1]
            lo = k % step
            pad = [0, *cur.re, 0, 0]    # pad[l + 1] = Q[k - 1, l]
            part = pad[lo:k + 1:step]
            if shift:
                part = [x + y for x, y in zip(part, pad[lo + 2::step])]
            # (factor, exponent, entries) of the terms to subtract
            terms = [(p, cur.exp + alphas.exp, pad[lo + 1::step])] if p else []
            if k > 1:
                older = rows[-2]
                terms.append((roots.re[k - 1], older.exp + roots.exp,
                              [*older.re[lo::step], 0, 0]))
            low = min([cur.exp] + [at for _, at, _ in terms])
            part = [x << cur.exp - low for x in part]
            for factor, at, entries in terms:
                factor <<= at - low
                part = [x - factor * y for x, y in zip(part, entries)]
        tz = max((root & -root).bit_length() - 1, 0)  # from the roots' scale
        row = _normalised(_Ints(part, None, root >> tz, low - roots.exp - tz),
                          _MPF, divide=True)
        ints = [0] * (k + 1)
        ints[k % step::step] = row.re
        rows.append(_Ints(ints, None, 1, row.exp))
    return rows


def _eigen_mode(precision: PrecisionMode) -> PrecisionMode:
    """The arithmetic of eigenvalue work: float64 in DOUBLE, 50-digit mpf
    otherwise (RATIONAL has no exact eigenvalues)."""
    return (precision if precision is PrecisionMode.DOUBLE
            else PrecisionMode.EXTENDED)


def _data_eigs(matrix, nu, shift: int, precision: PrecisionMode, first: int):
    """(mins, maxs, good) for the leading blocks n = first..size of the
    Hankel (shift 0) or connecting (shift 1) ``matrix`` of the data ``nu``,
    entry n - first for block n.  The verdict is taken as recovery takes
    it: Wheeler's rows on ``nu`` in the arithmetic of ``precision`` (exact
    Fractions in RATIONAL), whose pivots of the blocks 1..good are
    positive; the rows stop at a pivot that is not (``failed``) or at a
    row that overflows.  Each block is read by one of two steps:

    * a block the pivots accept: lambda_min off Q = diag(d)^-1/2 L^-1,
      for A = matrix = L diag(d) L^T, from the same run with no
      factorization (``_min_eigs`` of the ``_orthonormal_table`` in the
      eigenvalue mode); a value float64 cannot hold, from an overflowed
      float row of Q or below the float range, raises ConditioningError.
      Its ``maxs`` entry is left to the caller;
    * a block the pivots did not read: both extremes from
      ``sym_eigenvalues``, lambda_min clamped to <= 0.0 past a failed
      pivot (every such block has lambda_min <= 0, by interlacing).
    """
    size, pivots, alpha, beta = len(matrix), [], [], [0]
    failed = False
    try:
        _wheeler_rows(_lifted_nu(nu, size, shift, precision), size, shift,
                      pivots, alpha, beta)
    except np.linalg.LinAlgError:
        failed = True
    except ConditioningError:
        if not pivots:    # inf or NaN data, not a row that overflowed
            raise
    good, mode = len(pivots), _eigen_mode(precision)
    mins, maxs = np.empty((2, size - first + 1))
    if good >= first:
        table = _orthonormal_table(
            lift(alpha[:good - 1], mode),
            lift(pivots[:1] + beta[1:good], mode) ** 0.5, shift)
        read = _min_eigs(table, first)
        if not (read > 0).all():
            _finite(table[0])    # an overflowed float row of Q
            raise ConditioningError("the pivots accept the block, but its "
                                    "smallest eigenvalue is below double "
                                    "range")
        mins[:read.size] = read
    start = max(good + 1, first)    # the first block the pivots did not read
    for n in range(start, size + 1):
        mins[n - first], maxs[n - first] = sym_eigenvalues(matrix[:n, :n],
                                                           precision)[[0, -1]]
    if failed:
        mins[start - first:] = np.minimum(mins[start - first:], 0.0)
    return mins, maxs, good


def leading_eig_extremes(matrix, nu, shift: int, precision: PrecisionMode):
    """(smallest, largest) eigenvalue of every leading block
    matrix[:n, :n], n = 1..size, as float64, where ``matrix`` is the
    Hankel matrix of the moments ``nu`` (shift 0) or the corner-top
    connecting matrix of the response ``nu`` (shift 1).

    The smallest eigenvalues are ``_data_eigs`` from block 1, the one
    reader that ``_last_min_eig`` runs from the last block: a block the
    pivots accept reports a value > 0 or raises ConditioningError, never
    0.0, and a block past a failed pivot reports a value <= 0.
    lambda_max(A_n) = ||A_n||, with A lifted as for ``sym_eigenvalues``
    (float64, or mpf at EXTENDED_DPS digits), comes from
    ``_leading_top_eigs`` for the blocks the pivots accept and from the
    eigen-solve of each other block.  A DOUBLE matrix holding inf or NaN
    is refused with ConditioningError, and so is ``nu`` holding one.
    """
    work = _finite(lift(matrix, _eigen_mode(precision)))
    mins, maxs, good = _data_eigs(matrix, nu, shift, precision, 1)
    if good:
        a_top, a_exp = _leading_top_eigs(_frexp_table(work[:good, :good]))
        with np.errstate(over="ignore", under="ignore"):
            maxs[:good] = np.ldexp(a_top, a_exp)
    return mins, maxs


def _last_min_eig(matrix, nu, shift: int, precision: PrecisionMode) -> float:
    """The smallest eigenvalue of ``matrix`` as ``leading_eig_extremes``
    reports it for its last block, bit for bit: ``_data_eigs`` from that
    block alone, which is one LAPACK call when the pivots accept it, and
    one eigen-solve of ``matrix`` when they do not.  A value > 0 or
    ConditioningError where the pivots accept the block, never 0.0; a
    value <= 0 past a failed pivot."""
    return float(_data_eigs(matrix, nu, shift, precision, len(matrix))[0][0])


def _min_eigs(table, first: int = 1) -> np.ndarray:
    """lambda_min(A_n) = 1 / lambda_max(Q_n Q_n^T) for the leading blocks
    n = first..size, where A_n^-1 = Q_n^T Q_n, from the frexp table of Q:
    a well-conditioned largest eigenvalue per block, which keeps the
    relative accuracy of the tiny eigenvalues of graded matrices where a
    QR-type eigensolver loses it.  A block holding inf or NaN gives 0.0:
    an entry past 1.8e308 puts lambda below 1 / 1.8e308^2.  That is the
    value of a coefficient table (``orthonormal_min_eigs``); the data
    reader, ``_data_eigs``, refuses such a block, and one whose value
    underflows, with ConditioningError."""
    top, exp = _leading_top_eigs(table, gram=True, first=first)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(1 / top, -exp)


def orthonormal_min_eigs(a, b, shift: int,
                         precision: PrecisionMode) -> np.ndarray:
    """Smallest eigenvalue of every leading block of the Gram matrix of
    the spectral measure of a_0..a_{size-1} (a_0 = 1) and b_1..b_{size-1}
    in the basis x^l (shift 0: S_N) or U_l(x/2) (shift 1: the corner-top
    C_T), as float64: ``_min_eigs`` of the ``_orthonormal_table`` of
    alpha_k = b_{k+1} and sqrt(beta_k) = a_k, with no moment, response
    or matrix formed.  The rows are float64 in DOUBLE; otherwise a and b
    are lifted to mpf at EXTENDED_DPS digits and the rows built on ints.
    """
    mode = _eigen_mode(precision)
    return _min_eigs(_orthonormal_table(lift(b, mode), lift(a, mode), shift))


def gram_max_eigs(a, b, n_max: int, precision: PrecisionMode) -> np.ndarray:
    """lambda_max(C_T) = ||W_T||^2 for T = 1..n_max, as float64, for the
    size-n system of a_0..a_{n-1} and b_1..b_n with its Dirichlet wall,
    without forming C_T = W_T^T W_T or the wave field.  W = W_{n_max}
    holds u_{m,t} of the impulse control for m = 1..n and t = 1..n_max
    (fewer rows than columns when n < n_max); W[i, j] = 0 for i > j, so
    W_T^T W_T shares its nonzero eigenvalues with B_T B_T^T, B_T =
    W[:T, :T].

    The one forward sweep runs in the arithmetic of ``precision`` and
    hands ``_leading_top_eigs`` the frexp table of W: ``np.frexp`` of the
    float64 field in DOUBLE, and in the object modes each cell rounded
    once to float64 fields (``_emitted``), the exact cell in RATIONAL,
    with no Fraction or mpf cell made and no mpmath loaded there.  A
    DOUBLE cell that overflowed to inf or NaN, and a value beyond
    float64, gives inf.
    """
    ctrl = np.repeat(lift([1, 0], precision), [1, n_max - 1])    # the impulse
    a, b = lift(a, precision), lift(b, precision)
    shape = len(a), n_max
    if a.dtype == object:
        table = np.zeros(shape), np.zeros(shape, dtype=np.int64)
        forward_sweep(ctrl, a, b, table)
    else:
        field = np.empty(shape)
        forward_sweep(ctrl, a, b, field)
        table = _frexp_table(field)
    top, exp = _leading_top_eigs(table, gram=True)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(top, exp)


# the exponent ``_leading_top_eigs`` reads for a zero: below every entry's
_ZERO_EXP = -(1 << 40)


def _top_eigenvalue(block: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric float64 ``block``, from the
    lower triangle by numpy's LAPACK (``np.linalg.eigvalsh``), the
    eigensolver of DOUBLE ``sym_eigenvalues``."""
    return np.linalg.eigvalsh(block)[-1]


def _frexp_table(arr):
    """(mantissas, exponents) of the entries of a float or mpf array as
    frexp gives them, exponent 0 for a zero: the table
    ``_leading_top_eigs`` reads.  An mpf leaves the integer form by
    ``_emitted``, rounded once; an inf or NaN one raises ValueError, as
    mpmath's frexp does."""
    if arr.dtype != object:
        return np.frexp(arr)
    try:
        fields = _emitted(_read(arr.ravel().tolist()), float)
    except ConditioningError as exc:
        raise ValueError("frexp of an infinite or NaN mpf") from exc
    return (np.array([m for m, _ in fields]).reshape(arr.shape),
            np.array([e for _, e in fields], np.int64).reshape(arr.shape))


def _leading_top_eigs(table, gram=False, first: int = 1):
    """Largest eigenvalue of B_n = arr[:n, :n] (of B_n B_n^T when
    ``gram``) for n = first..columns, as (values, exponents) with lambda =
    ldexp(value, exponent), from the frexp table (mantissas, exponents)
    of arr (``_frexp_table`` or ``_orthonormal_table``).  A ``gram`` array may
    have fewer rows than columns; its B_n then keeps all of them.

    Each block is scaled by a power of two that brings its largest entry
    into [0.5, 1) before it is rounded to float64 for LAPACK, so entries
    beyond the float range neither overflow nor underflow.  A block
    holding inf or NaN, and every block after it, gets the value inf and
    never reaches LAPACK.
    """
    mant, exps = table
    # int64 first: frexp's int32 exponents would wrap _ZERO_EXP to 0
    exps = np.where(mant == 0, _ZERO_EXP, exps.astype(np.int64))
    rows, cols = mant.shape
    corner = (np.minimum(np.arange(cols), rows - 1), np.arange(cols))

    def per_block(entries, ufunc):
        # entry n-1: ufunc over the whole block arr[:n, :n]
        return ufunc.accumulate(ufunc.accumulate(entries, 0), 1)[corner]

    top = per_block(exps, np.maximum)
    finite = np.count_nonzero(per_block(np.isfinite(mant), np.minimum))
    values = np.full(cols - first + 1, np.inf)
    for n in range(first, finite + 1):
        block = np.ldexp(mant[:n, :n], exps[:n, :n] - top[n - 1])
        if gram:
            block = block @ block.T
        values[n - first] = _top_eigenvalue(block)
    return values, top[first - 1:] * (2 if gram else 1)


def pd_factor(matrix):
    """Unit lower-triangular L and pivots d with matrix = L diag(d) L^T.

    Float arrays are factored by numpy's LAPACK Cholesky C
    (``np.linalg.cholesky``; L = C diag(C)^-1, d = diag(C)^2).  Object
    arrays of mpf or Fraction are factored in their own arithmetic, with
    no square root, so Fraction input stays exact; each pivot and entry
    of L sums its products by ``dot``, so in EXTENDED it is rounded once.
    Raises np.linalg.LinAlgError when the matrix is not positive
    definite, and ConditioningError when it holds inf or NaN.
    """
    arr = np.asarray(matrix)
    if arr.dtype != object:
        chol = np.linalg.cholesky(_finite(arr))
        diag = np.diagonal(chol)
        return chol / diag, diag * diag
    if mode_of(arr) is PrecisionMode.EXTENDED:    # Fractions are finite
        _read(arr.ravel().tolist())    # inf or NaN: ConditioningError
    n = arr.shape[0]
    low = np.zeros((n, n), dtype=object)
    piv = np.empty(n, dtype=object)
    for j in range(n):
        scaled = low[j, :j] * piv[:j]     # L[j, k] d_k, once per column
        sums = dot(low[j:, :j], scaled)
        piv[j] = arr[j, j] - sums[0]
        if not piv[j] > 0:
            raise np.linalg.LinAlgError(f"pivot {j} is not positive")
        low[j, j] = 1
        low[j + 1:, j] = (arr[j + 1:, j] - sums[1:]) / piv[j]
    return low, piv


def _int_lines(arr: np.ndarray) -> tuple[list, list]:
    """The rows and columns of a 2-D object array as _Ints, read once."""
    rows, cols = arr.shape
    flat = _read(arr.ravel().tolist())
    return ([flat[i * cols:(i + 1) * cols] for i in range(rows)],
            [flat[j::cols] for j in range(cols)])


def _times(rows: list, vec) -> np.ndarray:
    """The object vector of the _Ints ``rows`` times ``vec`` (an array,
    read once, or _Ints)."""
    if not isinstance(vec, _Ints):
        vec = _read(vec.tolist())
    return np.array([row.dot(vec) for row in rows], dtype=object)


def dot(u: np.ndarray, v: np.ndarray):
    """sum_k u_k v_k of a 1-D array v and a 1-D array u, or the vector of
    these sums over the rows of a 2-D u.  When either holds an mpf or mpc
    of the EXTENDED context, each sum is formed exactly (``_Ints.dot``)
    and rounded once, however far its terms cancel; an operand holding
    inf or NaN gives ``u @ v``, which propagates them.  Other arrays,
    float64 and Fraction among them, give ``u @ v`` with its bits.  A v
    from ``dot_operand``, or a slice of it, gives the bits of the array.
    """
    if isinstance(v, _Ints):
        return _read(u.tolist()).dot(v)
    if (mode_of(v) is PrecisionMode.EXTENDED
            or mode_of(u) is PrecisionMode.EXTENDED):
        try:
            if u.ndim == 1:
                return _read(u.tolist()).dot(_read(v.tolist()))
            return _times(_int_lines(u)[0], v)
        except ConditioningError:    # inf or NaN
            pass
    return u @ v


def dot_operand(v: np.ndarray):
    """v ready for many ``dot`` calls: an array of EXTENDED mpf, none inf
    or NaN, as one _Ints read once, which ``dot`` takes as the array and
    ``extend`` grows (``_int_form``); any other v as it is."""
    return _int_form(v) if set(map(type, v.tolist())) == {_MPF} else v


def _sweeps(low, piv, rhs):
    """(x, product) with L diag(d) L^T x = rhs for a lower-triangular L
    with a nonzero diagonal (d = 1 when ``piv`` is None), by the two
    triangular sweeps.  A float L is substituted row by row, forward on L
    and back on L^T, each row contracting through ``dot`` on the x_j
    done.  An object L comes as _Ints of den 1, rows[i] = L[i, :] and
    ups[i] = L[::-1, i] to the diagonal at least (``_sweep``), and with no
    ``piv`` the back sweep gives the product L^T x."""
    if not isinstance(low, tuple):
        x = rhs.copy()
        for i in range(x.size):
            x[i] = (x[i] - dot(low[i, :i], x[:i])) / low[i, i]
        if piv is not None:
            x = x / piv
        for i in reversed(range(x.size)):
            x[i] = (x[i] - dot(low[i + 1:, i], x[i + 1:])) / low[i, i]
        return x, None

    rows, ups = low
    diag = [_unrounded(row.re[i], row.exp) for i, row in enumerate(rows)]
    b = [_read([v]) for v in rhs.tolist()]
    y = _sweep(rows, diag, [(_unrounded(v.re[0], v.exp), v.im and
                             _unrounded(v.im[0], v.exp)) for v in b])[0]
    if piv is not None:    # y / piv, as mpc_div_mpf and mpf_div round it
        piv = _read(piv.tolist())
        y = [tuple(part and mpf_div(part, _unrounded(d, piv.exp),
                                    _EXTENDED.prec, round_nearest)
                   for part in value) for value, d in zip(y, piv.re)]
    x, product = _sweep(ups[::-1], diag[::-1], y[::-1], piv is None)
    return np.array([_EXTENDED.make_mpf(re) if im is None else
                     _EXTENDED.make_mpc((re, im)) for re, im in x[::-1]],
                    dtype=object), product


def _sweep(lines: list, diag: list, values: list, product: bool = False):
    """One sweep of ``_sweeps`` on the fields (re, im) of the values, im
    None for a real one: x_i = (values_i - s_i) / diag_i by mpf_sub and
    mpf_div part by part, as mpmath's mpc_sub and mpc_div_mpf apply them,
    s_i = lines_i . x over the x_j done summed exactly and rounded once.
    With ``product`` also lines . x as _Ints: each exact s_i plus diag_i
    x_i, rounded once."""
    prec, rnd, done, out, sums = (_EXTENDED.prec, round_nearest, _Ints([]),
                                  [], _Ints([]))
    for line, d, (re, im) in zip(lines, diag, values):
        real, exp = sum(map(mul, line.re, done.re)), line.exp + (done.exp or 0)
        imag = done.im and sum(map(mul, line.re, done.im))
        re = mpf_div(mpf_sub(re, _round(real, exp), prec, rnd), d, prec, rnd)
        if done.im is not None:    # an mpf minus an mpc subtracts from 0
            im = mpf_sub(im or fzero, _round(imag, exp), prec, rnd)
        im = im and mpf_div(im, d, prec, rnd)
        k = len(done.re)
        done.push((re, im) if im else (re,))
        if product:
            at, cell = line.exp + (done.exp or 0), line.re[k]
            low = min(exp, at)
            sums.push([_round((part << exp - low) + (cell * x << at - low),
                              low) for part, x in zip(
                (real, imag or 0), [done.re[k]] + (done.im or [])[k:])])
        out.append((re, im))
    return out, sums[::-1] if product else None


def _norm(vec) -> float:
    """sqrt(sum |v_k|^2) as a float; an object vector's sum is the real
    part of ``dot`` of the vector and its conjugate, formed exactly and
    rounded once to EXTENDED_DPS digits before the root."""
    if vec.dtype != object:
        return math.sqrt(float(np.sum(np.abs(vec) ** 2)))
    return math.sqrt(float(_EXTENDED.re(dot(vec, np.conj(vec)))))


def _to_extended(arr: np.ndarray) -> np.ndarray:
    """Float arrays as they are, object arrays (mpf or Fraction) in mpf."""
    return lift(arr, PrecisionMode.EXTENDED) if arr.dtype == object else arr


def solve_scalar(z, precision: PrecisionMode):
    """z as a number of the arithmetic of a complex solve in
    ``precision``: complex in DOUBLE, and an mpc of the EXTENDED context
    in the object modes, where complex z converts exactly."""
    if precision is PrecisionMode.DOUBLE:
        return complex(z)
    return _EXTENDED.mpc(z)


def _point(z, precision: PrecisionMode):
    """``solve_scalar(z, precision)``, but its mpf real part for a real z
    in the object modes: no complex product, and ``dot`` the same bits."""
    point = solve_scalar(z, precision)
    real = precision is not _DOUBLE and _kind(z)[0] is not complex
    return point.real if real else point


def _refined_solve(low, piv, apply, rhs) -> tuple[np.ndarray, float]:
    """Solve A x = rhs, A = L diag(d) L^T given by its factor and by
    ``apply(x, product) = A x`` (see ``_sweeps``); refined until the
    relative residual is below _RESIDUAL_TOL, or ConditioningError.  The
    right side is complex128 for a float factor, and lifted as by
    ``lift`` for object lines, so mpc entries keep their digits."""
    b = (lift(rhs, PrecisionMode.EXTENDED) if isinstance(low, tuple)
         else np.asarray(rhs, dtype=complex))
    scale = max(_norm(b), 1e-300)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, product = _sweeps(low, piv, b)
        for step in range(_REFINE_STEPS + 1):
            gap = b - apply(x, product)
            residual = _norm(gap) / scale
            if residual <= _RESIDUAL_TOL or step == _REFINE_STEPS:
                break
            x, product = x + _sweeps(low, piv, gap)[0], None
    if not residual <= _RESIDUAL_TOL:    # NaN too
        raise ConditioningError(
            f"linear solve stalled at relative residual {residual:.3e}; "
            f"the matrix is too ill-conditioned for its precision")
    return x, residual


def mp_pd_solve(matrix, rhs) -> tuple[np.ndarray, float]:
    """Solve a real positive-definite system with a complex right side.

    Returns (x, relative residual).  Float arrays are factored by numpy's
    LAPACK and solved in complex128 by the substitution of ``_sweeps``.
    Object arrays are solved in mpc at EXTENDED_DPS digits (Fraction
    entries are rounded there, since the right side is inexact anyway),
    and x keeps its mpc entries because downstream identities
    (reproducing property, special states) cancel catastrophically when
    the solution is rounded to float64; the factor and the matrix are
    read once.  The solution is refined until the residual is below
    1e-10, and ConditioningError is raised when that stalls (or an object
    matrix holds inf or NaN).  Raises
    np.linalg.LinAlgError when the matrix is not positive definite.
    """
    mat = _to_extended(np.asarray(matrix))
    low, piv = pd_factor(mat)
    if mat.dtype != object:
        return _refined_solve(low, piv, lambda x, _: dot(mat, x), rhs)
    rows, (lows, cols) = _int_lines(mat)[0], _int_lines(low)
    return _refined_solve((lows, [col[::-1] for col in cols]), piv,
                          lambda x, _: _times(rows, x), rhs)


def gram_solve(upper, rhs) -> tuple[np.ndarray, float]:
    """Solve W^T W x = rhs for an upper-triangular W with a positive
    diagonal, without forming W^T W; the entries below the diagonal are
    not read.

    W^T is the Cholesky factor of W^T W, so the solve is the two
    triangular sweeps on W, O(n^2), and the residual is W^T (W x) - rhs
    (``_gram_operator``).  Number types, refinement and
    ConditioningError are as in ``mp_pd_solve``; a W holding inf or NaN
    is refused up front.  ``upper`` is W as an array, or the _Columns of
    ``_gram_out``, into which an object array is read for one solve.
    """
    if not isinstance(upper, _Columns):
        upper = _finite(_to_extended(np.asarray(upper)))
        if upper.dtype == object:
            upper = _Columns(col[:j + 1] for j, col in
                             enumerate(_int_lines(upper)[1]))
    low, apply = _gram_operator(upper)
    return _refined_solve(low, None, apply, rhs)


def _gram_operator(w):
    """W^T as the factor of W^T W for ``_sweeps``, and (x, wx) -> W^T (W
    x), wx = W x from the back sweep or None.  W's columns give its rows,
    from the last column back to the diagonal, each on its own scale; a
    float W sums only its nonzero terms."""
    if isinstance(w, _Columns):
        n, exps = len(w), [col.exp or 0 for col in w]
        ups = [_Ints([w[t].re[i] << exps[t] - low
                      for t in range(n - 1, i - 1, -1)], None, 1, low)
               for i, low in enumerate([min(exps[i:]) for i in range(n)])]
        return (w, ups), lambda x, wx: _times(
            w, _times(ups, x[::-1]) if wx is None else wx)

    def apply(x, _):
        wx, out = np.empty_like(x), np.empty_like(x)
        for i in range(x.size):
            wx[i] = dot(w[i, i:], x[i:])
        for i in range(x.size):
            out[i] = dot(w[:i + 1, i], wx[:i + 1])
        return out

    return w.T, apply
