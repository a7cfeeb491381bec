"""The precision backend: the only module that knows what each mode means.

DOUBLE keeps float64/complex128 ndarrays on LAPACK.  The eigenvalues of
float blocks, the extremes of every mode and DOUBLE ``sym_eigenvalues``,
come from numpy's LAPACK (``np.linalg.eigvalsh``); scipy's, through
``lapack``, only where a DOUBLE step needs it.  EXTENDED lifts values to
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
mantissa kept, and an mpf of the private context is kept as it is; one
passed to a dtype-keeping function such as ``connecting_from_response``
computes in the caller's own context.

The pipeline modules write each step once, independent of dtype, on the
steps this module provides: lifting and refusing data (``lift``,
``require_real``) and its floors, the forward sweep (``forward_sweep``),
Wheeler's recurrence (``modified_chebyshev``), the eigenvalue sequences
read off Q = diag(d)^-1/2 L^-1 for A = L diag(d) L^T, the table of the
orthonormal polynomials (``orthonormal_min_eigs``,
``leading_eig_extremes``, ``gram_max_eigs``), ``sym_eigenvalues``, one
positive-definite factorization and solve (``pd_factor``,
``mp_pd_solve``, ``gram_solve``) and the contraction ``dot``.

Float arrays take numpy and LAPACK.  Object arrays take four loops on
Python ints, each one for both object modes: the recurrence
(``_integer_rows``), the sweep (``_integer_sweep``), the rows of Q
(``_orthonormal_ints``) and the sums of ``dot`` and the solves
(``_Ints.dot``).  They share one integer form, ``_Ints``: a vector as
Python ints over one scale den * 2^exp, with an imaginary part only when
some value is an mpc.  ``_read`` takes numbers into it exactly;
``_normalised`` keeps its ints short, RATIONAL by one gcd per vector,
for the canonical Fractions, EXTENDED by rounding to nearest so that the
smallest nonzero int keeps _ROW_BITS bits, the precision and 64 guard
bits; ``_emitted`` gives back Fractions, mpf or mpc rounded once, or
frexp fields.  An EXTENDED value so keeps 64 bits more than an mpf and
is rounded once where mpf arithmetic rounds at every step, but the ints
span the exponent range of the vector, which has no bound for mpf
values, and so does the cost.  On the benchmark's families (2-vCPU
host) the recurrence of a T = 40 recovery takes about 3 ms where rows
of mpf took 19 ms, and an EXTENDED W_T at T = 40 about 3.6 ms where
slices of mpf took 12.6 ms.  A sum of ``dot`` is rounded once where
numpy's object ``@`` rounds after every product and add; float and
Fraction operands keep ``@`` and its bits.

In products of an object array with an mpf scalar the array goes on the
left: an mpf on the left makes mpmath format the whole array for an
error message before numpy's reflected operator takes over.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np
from mpmath import MPContext
from mpmath.libmp import fzero, normalize, round_nearest

from .core import (ComplexDataError, ConditioningError,
                   InsufficientDataError, PrecisionMode, _to_fraction)

EXTENDED_DPS = 50
_EXTENDED = MPContext()
_EXTENDED.dps = EXTENDED_DPS
_MPF, _MPC = _EXTENDED.mpf, _EXTENDED.mpc
_OWN_TYPES = (_MPF, _MPC)

# Double-precision eigenvalues below this multiple of eps * ||block|| are noise.
NOISE_FLOOR_FACTOR = 1e3

_RESIDUAL_TOL = 1e-10
_REFINE_STEPS = 5

# Float rows of a forward sweep round the updated width up to a multiple
# of this many sites.
_WIDTH_QUANTUM = 64


def as_mpf(x):
    """x as an mpf (mpc when complex) of the EXTENDED context: floats and
    complex convert exactly, ints and Fractions round to EXTENDED_DPS
    digits, and an mpf or mpc of any context keeps its mantissa."""
    if isinstance(x, (int, float)):
        return _EXTENDED.mpf(x)
    if isinstance(x, Fraction):
        return _EXTENDED.mpf(x.numerator) / _EXTENDED.mpf(x.denominator)
    if isinstance(x, complex):
        return _EXTENDED.mpc(x)
    if hasattr(x, "_mpf_"):
        return _EXTENDED.make_mpf(x._mpf_)
    if hasattr(x, "_mpc_"):
        return _EXTENDED.make_mpc(x._mpc_)
    return _EXTENDED.mpf(float(x))


def lift(values, precision: PrecisionMode) -> np.ndarray:
    """``values`` as an array of the number type of ``precision``.

    Every mode returns a new array, never a view of ``values``.  DOUBLE
    gives float64 (complex128 for complex input), copied once, and raises
    ConditioningError for a value beyond its range.  EXTENDED gives
    an object array of mpf of the private EXTENDED_DPS-digit context (see
    ``as_mpf``); RATIONAL an object array of Fraction, where floats
    convert exactly and inexact types such as mpf are refused with
    TypeError.
    """
    if precision is PrecisionMode.DOUBLE:
        arr = np.array(values)
        try:
            return arr.astype(complex if np.iscomplexobj(arr) else float,
                              copy=False)
        except OverflowError as exc:
            raise ConditioningError(
                "a value exceeds double precision (about 1.8e308); use "
                "PrecisionMode.EXTENDED (--precision extended)") from exc
    arr = np.asarray(values)
    out = np.empty(arr.shape, dtype=object)
    # tolist() turns numpy scalars into the Python numbers both converters
    # accept
    values = arr.ravel().tolist()
    if precision is PrecisionMode.RATIONAL:
        out.flat = [_to_fraction(v) for v in values]
    else:    # numbers already of the private context are kept as they are
        out.flat = [v if type(v) in _OWN_TYPES else as_mpf(v) for v in values]
    return out


def lift_ints(ints: list, precision: PrecisionMode) -> np.ndarray:
    """Exact ints as the coefficients of a combination of values of
    ``precision``: float64 in DOUBLE, where an int beyond its range
    raises ConditioningError as in ``lift``, and the ints themselves in
    the object modes, where an int times an mpf rounds once and times a
    Fraction stays exact."""
    if precision is PrecisionMode.DOUBLE:
        return lift(ints, precision)
    return np.array(ints, dtype=object)


def require_real(values, name: str, first: int = 0) -> None:
    """Refuse complex entries of ``values`` with ComplexDataError naming
    the first, name_{first + k}: a complex or an mpc, whatever its
    imaginary part, and in an array of complex dtype the first entry
    with a nonzero imaginary part (entry 0 when none has one)."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        at = int(np.argmax(arr.imag != 0))
    elif arr.dtype == object:
        at = next((k for k, x in enumerate(arr.tolist())
                   if isinstance(x, complex) or _is_mpc(x)), None)
        if at is None:
            return
    else:
        return
    raise ComplexDataError(
        f"{name}_{first + at} = {arr[at]} is complex; it must be real")


def mode_of(values: np.ndarray) -> PrecisionMode:
    """The mode whose number type the array ``values`` holds: DOUBLE for
    a float or complex array, EXTENDED for an object array holding an
    mpf or mpc of the EXTENDED context, and RATIONAL for any other object
    array."""
    if values.dtype != object:
        return PrecisionMode.DOUBLE
    return (PrecisionMode.EXTENDED if _holds_extended(values)
            else PrecisionMode.RATIONAL)


def _holds_extended(arr: np.ndarray) -> bool:
    return arr.dtype == object and any(type(x) in _OWN_TYPES for x in arr.flat)


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


def width_quantum(coef: np.ndarray) -> int:
    """Sites the float sweep rounds its updated width up to, for the
    float coefficient rows (a_{n-1}, b_n, a_n) ``coef``.

    A cell past the wavefront sums a_n u_{n+1} + a_{n-1} u_{n-1} + b_n u_n
    - u_{n,t-1} over zeros, and stays +0.0 when every a_n (row 0) is
    positive and every b_n finite, as validated coefficients are; such
    real rows take _WIDTH_QUANTUM.  Complex rows, and rows with a
    coefficient that is not positive or not finite (which could put -0.0
    or NaN past the wavefront), keep the exact width.
    """
    if (coef.dtype.kind == "f" and np.isfinite(coef).all()
            and (coef[0] > 0).all()):
        return _WIDTH_QUANTUM
    return 1


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
    """
    pivots, alpha, beta = [], [], [0]
    _wheeler_rows(_lifted_nu(nu, size, precision), size, shift, pivots,
                  alpha, beta)
    return np.array(pivots), np.array(alpha), np.array(beta)


def _lifted_nu(nu, size: int, precision: PrecisionMode) -> np.ndarray:
    """nu_0..nu_{2 size - 2} lifted, or the error of a size below 1 or
    too short a sequence."""
    if size < 1:
        raise ValueError("horizon must be >= 1")
    if len(nu) < 2 * size - 1:
        raise InsufficientDataError(
            f"insufficient data: need {2 * size - 1}, got {len(nu)}")
    return lift(nu[:2 * size - 1], precision)


def _wheeler_rows(row: np.ndarray, size: int, shift: int, pivots: list,
                  alpha: list, beta: list) -> None:
    """Wheeler's rows k = 0..size-1 on the lifted nu: appends sigma_kk,
    alpha_k (k < size - 1) and beta_k (k >= 1) to the lists, which start
    empty, empty and [0].  A bad row raises as ``modified_chebyshev``
    describes, and the lists keep the rows before it."""
    rows = _integer_rows if row.dtype == object else _array_rows
    rows(row, size, shift, pivots, alpha, beta)


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
    start, below = row, np.zeros(row.size + 2)    # sigma_{-1,l} = 0
    ratio = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # see above
            for k in range(size):
                if k:
                    nxt = (row[2:] - row[1:-1] * alpha[-1]
                           - below[2:-2] * beta[-1])
                    _plus_basis_shift(nxt, row[:-2], shift)
                    row, below = nxt, row
                    beta.append(row[0] / pivots[-1])
                if checked:
                    _finite(row)
                pivot = row[0]
                if not pivot > 0:
                    raise np.linalg.LinAlgError(f"pivot {k} is not positive")
                pivots.append(pivot)
                if k < size - 1:
                    step = row[1] / pivot
                    alpha.append(step - ratio)
                    ratio = step
        if checked or np.isfinite(pivots + alpha + beta).all():
            return
    except np.linalg.LinAlgError:
        if checked:
            raise
    del pivots[:], alpha[:], beta[1:]
    _array_rows(start, size, shift, pivots, alpha, beta, checked=True)


# Every nonzero entry of an EXTENDED integer vector keeps at least this
# many bits: the context's precision and 64 guard bits.
_ROW_BITS = _EXTENDED.prec + 64


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
    mpmath's ``fdot`` takes it; inf and NaN raise ConditioningError."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return _Ints(list(values), None, 1, 0 if values else None)
    if kinds <= {int, Fraction}:
        den = math.lcm(*[x.denominator for x in values])
        return _Ints([x.numerator * (den // x.denominator) for x in values],
                     None, den, 0)

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
    """(quo, rem, extra): |man| / den = (quo + rem / den) 2^-extra."""
    extra = _ROW_BITS - man.bit_length() + den.bit_length()
    if extra >= 0:
        return (*divmod(abs(man) << extra, den), extra)
    return (*divmod(abs(man), den << -extra), extra)


def _round(man: int, exp: int, den: int = 1):
    """The mpf fields of man / den * 2^exp rounded to nearest once.  A den
    > 1 is divided out with a sticky bit for the remainder, which rounds
    as the exact quotient does."""
    if den != 1:
        quo, rem, extra = _quotient(man, den)
        quo = quo << 1 | (rem != 0)
        man, exp = -quo if man < 0 else quo, exp - extra - 1
    if man < 0:
        return normalize(1, -man, exp, (-man).bit_length(), _EXTENDED.prec,
                         round_nearest)
    return normalize(0, man, exp, man.bit_length(), _EXTENDED.prec,
                     round_nearest)


def _emitted(vec: _Ints, kind, zero=None, mpc: int = -1) -> list:
    """``vec`` as Fractions (exp 0); as _MPF, each rounded once, an mpc
    where ``vec`` has an im and bit k of ``mpc`` is set, ``zero`` if given
    for a real zero; or as the float frexp fields of re[k] 2^exp (den 1),
    rounded to nearest as float() and true division round an int."""
    re, den, exp, make_mpf = vec.re, vec.den, vec.exp or 0, _EXTENDED.make_mpf
    if kind is _MPF and vec.im is None:
        return [make_mpf(_round(x, exp, den)) if x or zero is None else zero
                for x in re]
    if kind is _MPF:
        return [_EXTENDED.make_mpc((_round(x, exp, den), _round(y, exp, den)))
                if mpc >> k & 1 else make_mpf(_round(x, exp, den))
                if x or zero is None else zero
                for k, (x, y) in enumerate(zip(re, vec.im))]
    if kind is Fraction:
        return [Fraction(x, den) for x in re]
    return [(math.ldexp(x, -b) if b < 1024 else x / (1 << b),
             exp + b if b else 0) for x, b in zip(re, map(int.bit_length, re))]


def _integer_rows(row: np.ndarray, size: int, shift: int, pivots: list,
                  alpha: list, beta: list) -> None:
    """``_wheeler_rows`` on an object row of Fractions or mpf, in the
    fraction-free manner of Bareiss (Math. Comp. 22 (1968)).

    Row k is sigma_{k,l} = num[l - k] / den * 2^exp.  With alpha_k = p /
    q * 2^ea and beta_k = u / v * 2^eb (``_ratio``), the next row is

        q v den_below 2^(exp - low) (num[i+2] + shift num[i])
        - p v den_below 2^(exp + ea - low) num[i+1]
        - u q den 2^(exp_below + eb - low) num_below[i+2]

    over den q v den_below, times 2^low, where low is the smallest of the
    three exponents, then ``_normalised``.
    """
    kind = Fraction if mode_of(row) is PrecisionMode.RATIONAL else _MPF
    first = _read(row.tolist())
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
            nxt = [f1 * (n2 + shift * n0) - f2 * n1 - f3 * m2
                   for n0, n1, n2, m2 in zip(num, num[1:], num[2:],
                                             below[2:])]
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
    quotient cut toward zero; 0 over 2^0 for a zero alpha_k."""
    if kind is Fraction:
        value = Fraction(n, d)
        terms = _read([value])
        return value, (terms.re[0], terms.den, 0)
    value = _EXTENDED.make_mpf(_round(n, e, d))
    if not n:
        return value, (0, 1, 0)
    quo, _, extra = _quotient(n, d)
    return value, (-quo if n < 0 else quo, 1, e - extra)


def forward_sweep(ctrl, coef, out: np.ndarray, float_sweep) -> None:
    """The forward sweep of ``dynamics``, u_{n,t+1} into out[n-1, t] for
    n = 1..len(out) and t < len(ctrl), from the lifted control and rows
    (a_{n-1}, b_n, a_n): ``float_sweep`` or ``_integer_sweep``."""
    sweep = _integer_sweep if coef.dtype == object else float_sweep
    sweep(ctrl, coef, out)


def _integer_sweep(ctrl, coef, out: np.ndarray) -> None:
    """``forward_sweep`` on object rows of Fractions, mpf and mpc.

    The rows and the control are read once, and step t updates the
    sites n = 1..k of the cone of ``dynamics._steps``, k = min(t + 1,
    n_space, watched + horizon - t - 1), of a time slice by

        N_{t+1}[n] = f1 (A_n N_t[n+1] + A_{n-1} N_t[n-1] + B_n N_t[n])
                     - f3 N_{t-1}[n]    (+ fc A_0 F_t at n = 1),

    where f1, f3 and fc align the scales of the terms, then
    ``_normalised``.  Site 0 holds 0, for which the control term stands.
    A cell is an mpc exactly where mpmath's one-expression step makes
    one, where an mpc coefficient or control value reaches it (a bit
    mask per slice).  Sites the wave has not reached hold coef[2, -1].
    """
    n_space, horizon, watched = coef.shape[1], len(ctrl), len(out)
    kind = Fraction if mode_of(coef) is PrecisionMode.RATIONAL else _MPF
    zero = coef[2, -1]
    a, b, ctrl = coef[0].tolist() + [zero], coef[1].tolist(), ctrl.tolist()
    # bit n: site n has an mpc among a_{n-1}, b_n and a_n
    coef_mpc = sum(1 << n for n in range(1, n_space + 1)
                   if _is_mpc(a[n - 1]) or _is_mpc(b[n - 1]) or _is_mpc(a[n]))
    ctrl_mpc = [_is_mpc(f) for f in ctrl]
    parts = 2 if coef_mpc or any(ctrl_mpc) else 1
    rows, force = _read(a + b), _read(ctrl)
    cden, cexp, fden, fexp = rows.den, rows.exp, force.den, force.exp
    # the parts of a_{n-1}, a_n, b_n and f_t
    below, above, diag, force = (vec.parts(parts) for vec in (
        rows[:n_space], rows[1:n_space + 1], rows[n_space + 1:], force))
    # per parity of t: the site-indexed ints of each part, their scale,
    # and the mpc mask
    slices = [[[0] * (n_space + 2) for _ in range(parts)] for _ in range(2)]
    scales, masks = [(1, 0), (1, 0)], [0, 0]
    out[...] = zero
    for t in range(horizon):
        k = min(t + 1, n_space, watched + horizon - t - 1)
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
        new = [[f1 * s - f3 * q for s, q in zip(part, old[1:k + 1])]
               for part, old in zip(_site_sums(below, above, diag, cur, k),
                                    older)]
        if fc:    # a_0 f_t: site 1's sum over a slice of f_t at site 0
            for part, term in zip(new, _site_sums(
                    below, above, diag, [[f, 0, 0] for f in f_t], 1)):
                part[0] += fc[0] * term[0]
        vec = _normalised(_Ints(*new, den, low) if parts == 2
                          else _Ints(new[0], None, den, low), kind)
        for old, part in zip(older, vec.parts(parts)):
            old[1:k + 1] = part
        scales[1 - i] = vec.den, vec.exp
        if parts == 2:
            near = masks[i] | masks[i] << 1 | masks[i] >> 1 | ctrl_mpc[t] << 1
            masks[1 - i] = (coef_mpc | near | masks[1 - i]) & (2 << k) - 2
        m = min(k, watched)
        out[:m, t] = _emitted(vec[:m], kind, zero, masks[1 - i] >> 1)


def _is_mpc(x) -> bool:
    return hasattr(x, "_mpc_")


def _site_sums(below, above, diag, cur, k: int) -> list:
    """The parts of a_n u_{n+1} + a_{n-1} u_{n-1} + b_n u_n, n = 1..k,
    from the parts of a_{n-1}, a_n, b_n and the site-indexed ``cur``."""
    def real(p, q):
        lo, hi, mid, u = below[p], above[p], diag[p], cur[q]
        return [h * u2 + l * u0 + d * u1 for l, h, d, u0, u1, u2 in
                zip(lo, hi, mid, u[:k], u[1:k + 1], u[2:k + 2])]
    if len(cur) == 1:
        return [real(0, 0)]
    return [[x - y for x, y in zip(real(0, 0), real(1, 1))],
            [x + y for x, y in zip(real(0, 1), real(1, 0))]]


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
    return mant, np.where(mant == 0, _ZERO_EXP, exps)


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


def leading_eig_extremes(matrix, nu, shift: int, precision: PrecisionMode):
    """(smallest, largest) eigenvalue of every leading block
    matrix[:n, :n], n = 1..size, as float64, where ``matrix`` is the
    Hankel matrix of the moments ``nu`` (shift 0) or the corner-top
    connecting matrix of the response ``nu`` (shift 1).

    Both are lifted as for ``sym_eigenvalues`` (float64, or mpf at
    EXTENDED_DPS digits).  With A = matrix = L diag(d) L^T, Q =
    diag(d)^-1/2 L^-1 comes from ``modified_chebyshev`` on ``nu``, with
    no factorization: ``_orthonormal_table`` of its alpha_k and
    sqrt(beta_k).  The smallest eigenvalues are read off Q as in
    ``orthonormal_min_eigs``, and lambda_max(A_n) = ||A_n||.  A DOUBLE
    matrix holding inf or NaN is refused with ConditioningError, and so
    is an object ``nu`` holding one.  A pivot that is not positive, or a
    float row that overflows, ends the recurrence: the blocks before it
    are still read off Q, and every block from it on is eigen-solved by
    itself, so negative eigenvalues are reported.
    """
    mode = _eigen_mode(precision)
    work = _finite(lift(matrix, mode))
    size = work.shape[0]
    pivots, alpha, beta = [], [], [0]
    try:
        _wheeler_rows(_lifted_nu(nu, size, mode), size, shift, pivots, alpha,
                      beta)
    except np.linalg.LinAlgError:
        pass
    except ConditioningError:
        if not pivots:    # inf or NaN data, not a row that overflowed
            raise
    good = len(pivots)
    mins, maxs = np.empty(size), np.empty(size)
    if good:
        root_beta = np.array(pivots[:1] + beta[1:good]) ** 0.5
        mins[:good] = _min_eigs(_orthonormal_table(
            np.array(alpha[:good - 1]), root_beta, shift))
        a_top, a_exp = _leading_top_eigs(_frexp_table(work[:good, :good]))
        with np.errstate(over="ignore", under="ignore"):
            maxs[:good] = np.ldexp(a_top, a_exp)
    for n in range(good + 1, size + 1):
        mins[n - 1], maxs[n - 1] = sym_eigenvalues(matrix[:n, :n],
                                                   precision)[[0, -1]]
    return mins, maxs


def _min_eigs(table) -> np.ndarray:
    """lambda_min(A_n) = 1 / lambda_max(Q_n Q_n^T) for every leading
    block, where A_n^-1 = Q_n^T Q_n, from the frexp table of Q: a
    well-conditioned largest eigenvalue per block, which keeps the
    relative accuracy of the tiny eigenvalues of graded matrices where a
    QR-type eigensolver loses it.  A block holding inf or NaN gives 0.0:
    an entry past 1.8e308 puts lambda below 1 / 1.8e308^2."""
    top, exp = _leading_top_eigs(table, gram=True)
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


def gram_max_eigs(upper, precision: PrecisionMode) -> np.ndarray:
    """lambda_max(W_n^T W_n), W_n = upper[:, :n], for n = 1..columns, as
    float64: the largest eigenvalue of every leading block of C = W^T W,
    without forming C, for a W with W[i, j] = 0 for i > j, such as the
    control operator W_T (with fewer rows than columns for a finite
    family).  W_n^T W_n then shares its nonzero eigenvalues with
    B_n B_n^T, B_n = upper[:n, :n].

    The entries are lifted as for ``sym_eigenvalues``.  A float block
    holding inf or NaN, and a value beyond float64, gives inf.
    """
    top, exp = _leading_top_eigs(
        _frexp_table(lift(upper, _eigen_mode(precision))), gram=True)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(top, exp)


# frexp exponent given to zero entries: below every real entry's exponent
_ZERO_EXP = -(1 << 40)


def lapack():
    """scipy.linalg, imported by the first call.

    LAPACK through scipy serves only the DOUBLE factorizations
    (``pd_factor``), the DOUBLE triangular sweeps (``_sweeps``) and
    ``spectral_data``; none of the CLI commands ``response``, ``recover``
    and ``diagnose`` reaches it, so they skip the import time and memory
    of scipy.
    """
    import scipy.linalg
    return scipy.linalg


def _top_eigenvalue(block: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric float64 ``block``, from the
    lower triangle by numpy's LAPACK (``np.linalg.eigvalsh``), the
    eigensolver of DOUBLE ``sym_eigenvalues``."""
    return np.linalg.eigvalsh(block)[-1]


def _frexp_table(arr):
    """(mantissas, exponents) of the entries of a float or mpf array as
    frexp gives them, float64 and int64, with the exponent _ZERO_EXP for
    a zero: the table ``_leading_top_eigs`` reads.  An mpf inf or NaN
    raises ValueError, as mpmath's frexp does."""
    if arr.dtype != object:
        mant, exps = np.frexp(arr)
    else:    # the nonzero entries only: a triangle of W holds exact zeros
        mant, exps = np.zeros(arr.shape), np.zeros(arr.shape, dtype=np.int64)
        nonzero = np.nonzero(arr)
        try:
            fields = _emitted(_read(arr[nonzero].tolist()), float)
        except ConditioningError as exc:
            raise ValueError("frexp of an infinite or NaN mpf") from exc
        if fields:
            mant[nonzero], exps[nonzero] = zip(*fields)
    # int64 first: frexp's int32 exponents would wrap _ZERO_EXP to 0
    return mant, np.where(mant == 0, _ZERO_EXP, exps.astype(np.int64))


def _leading_top_eigs(table, gram=False):
    """Largest eigenvalue of B_n = arr[:n, :n] (of B_n B_n^T when
    ``gram``) for n = 1..columns, as (values, exponents) with lambda =
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
    rows, cols = mant.shape
    corner = (np.minimum(np.arange(cols), rows - 1), np.arange(cols))

    def per_block(entries, ufunc):
        # entry n-1: ufunc over the whole block arr[:n, :n]
        return ufunc.accumulate(ufunc.accumulate(entries, 0), 1)[corner]

    top = per_block(exps, np.maximum)
    finite = np.count_nonzero(per_block(np.isfinite(mant), np.minimum))
    values = np.full(cols, np.inf)
    for n in range(1, finite + 1):
        block = np.ldexp(mant[:n, :n], exps[:n, :n] - top[n - 1])
        if gram:
            block = block @ block.T
        values[n - 1] = _top_eigenvalue(block)
    return values, top * (2 if gram else 1)


def pd_factor(matrix):
    """Unit lower-triangular L and pivots d with matrix = L diag(d) L^T.

    Float arrays are factored by LAPACK Cholesky C (L = C diag(C)^-1,
    d = diag(C)^2).  Object arrays of mpf or Fraction are factored in
    their own arithmetic, with no square root, so Fraction input stays
    exact; each pivot and entry of L sums its products as ``dot`` does,
    so in EXTENDED it is rounded once, on rows of L held as _Ints and
    grown by one entry per column.  Raises np.linalg.LinAlgError when the
    matrix is not positive definite, and ConditioningError when a float
    array holds inf or NaN or when one reaches an EXTENDED row product.
    """
    arr = np.asarray(matrix)
    if arr.dtype != object:
        chol = lapack().cholesky(_finite(arr), lower=True,
                                 check_finite=False)
        diag = np.diagonal(chol)
        return chol / diag, diag * diag
    n = arr.shape[0]
    low = np.zeros((n, n), dtype=object)
    piv = np.empty(n, dtype=object)
    rows = [_Ints([]) for _ in range(n)] if _holds_extended(arr) else None
    for j in range(n):
        scaled = low[j, :j] * piv[:j]     # L[j, k] d_k, once per column
        sums = (dot(low[j:, :j], scaled) if rows is None
                else _times(rows[j:], scaled))
        piv[j] = arr[j, j] - sums[0]
        if not piv[j] > 0:
            raise np.linalg.LinAlgError(f"pivot {j} is not positive")
        low[j, j] = 1
        low[j + 1:, j] = (arr[j + 1:, j] - sums[1:]) / piv[j]
        if rows is not None:
            for row, x in zip(rows[j + 1:], low[j + 1:, j].tolist()):
                row.extend([x])
    return low, piv


def _int_lines(arr: np.ndarray) -> tuple[list, list]:
    """The rows and columns of a 2-D object array as _Ints, read once."""
    rows, cols = arr.shape
    flat = _read(arr.ravel().tolist())
    return ([flat[i * cols:(i + 1) * cols] for i in range(rows)],
            [flat[j::cols] for j in range(cols)])


def _times(rows: list, vec: np.ndarray) -> np.ndarray:
    """The object vector of the _Ints ``rows`` times ``vec``, read once."""
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
    if _holds_extended(v) or _holds_extended(u):
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
    ``extend`` grows; any other v as it is."""
    values = v.tolist()
    if v.dtype == object and set(map(type, values)) == {_MPF}:
        try:
            return _read(values)
        except ConditioningError:    # inf or NaN
            pass
    return v


def _sweeps(low, piv, rhs):
    """x with L diag(d) L^T x = rhs for a lower-triangular L with a
    nonzero diagonal (d = 1 when ``piv`` is None), by the two triangular
    sweeps.  A float L goes to LAPACK; an object L is given as its
    ``_Factor``."""
    if isinstance(low, _Factor):
        return low.sweeps(piv, rhs)
    solve_triangular = lapack().solve_triangular
    y = solve_triangular(low, rhs, lower=True, check_finite=False)
    return solve_triangular(
        low, y if piv is None else y / piv, lower=True, trans="T",
        check_finite=False)


class _Factor:
    """An object lower-triangular L with a nonzero diagonal as _Ints read
    once per solve: rows[i] = L[i, :], cols[i] = L[::-1, i] (upwards)."""

    def __init__(self, rows: list, cols: list, diag: np.ndarray):
        self.rows, self.diag = rows, diag
        self.cols = [col[::-1] for col in cols]

    def sweeps(self, piv, rhs) -> np.ndarray:
        """``_sweeps``: each x_i is the mpc subtract and divide of object
        arrays, with its dot product rounded once, on the x_j done."""
        x = rhs.copy()
        done = _Ints([])
        for i, row in enumerate(self.rows):
            x[i] = (x[i] - row.dot(done)) / self.diag[i]
            done.extend([x[i]])
        if piv is not None:
            x = x / piv
        done = _Ints([])
        for i in reversed(range(x.size)):
            x[i] = (x[i] - self.cols[i].dot(done)) / self.diag[i]
            done.extend([x[i]])
        return x


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


def _refined_solve(low, piv, apply, rhs) -> tuple[np.ndarray, float]:
    """Solve A x = rhs, A = L diag(d) L^T given by its factor (see
    ``_sweeps``) and by ``apply(x) = A x``; refined until the relative
    residual is below _RESIDUAL_TOL, or ConditioningError.  The right
    side is complex128 for a float factor, and lifted as by ``lift``
    for an object factor (a ``_Factor``), so mpc entries keep their
    digits."""
    b = (lift(rhs, PrecisionMode.EXTENDED) if isinstance(low, _Factor)
         else np.asarray(rhs, dtype=complex))
    scale = max(_norm(b), 1e-300)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _sweeps(low, piv, b)
        residual = _norm(apply(x) - b) / scale
        for _ in range(_REFINE_STEPS):
            if residual <= _RESIDUAL_TOL:
                break
            x = x + _sweeps(low, piv, b - apply(x))
            residual = _norm(apply(x) - b) / scale
    if not residual <= _RESIDUAL_TOL:    # NaN too
        raise ConditioningError(
            f"linear solve stalled at relative residual {residual:.3e}; "
            f"the matrix is too ill-conditioned for its precision")
    return x, residual


def mp_pd_solve(matrix, rhs) -> tuple[np.ndarray, float]:
    """Solve a real positive-definite system with a complex right side.

    Returns (x, relative residual).  Float arrays are solved in
    complex128 on LAPACK.  Object arrays are solved in mpc at
    EXTENDED_DPS digits (Fraction entries are rounded there, since the
    right side is inexact anyway), and x keeps its mpc entries because
    downstream identities (reproducing property, special states) cancel
    catastrophically when the solution is rounded to float64; the factor
    and the matrix are read once.  The solution is refined until the
    residual is below 1e-10, and ConditioningError is raised when that
    stalls (or an object matrix holds inf or NaN).  Raises
    np.linalg.LinAlgError when the matrix is not positive definite.
    """
    mat = _to_extended(np.asarray(matrix))
    low, piv = pd_factor(mat)
    if mat.dtype != object:
        return _refined_solve(low, piv, lambda x: dot(mat, x), rhs)
    rows = _int_lines(mat)[0]
    return _refined_solve(_Factor(*_int_lines(low), low.diagonal()), piv,
                          lambda x: _times(rows, x), rhs)


def gram_solve(upper, rhs) -> tuple[np.ndarray, float]:
    """Solve W^T W x = rhs for an upper-triangular W with a positive
    diagonal, without forming W^T W.

    W^T is the Cholesky factor of W^T W, so the solve is the two
    triangular sweeps on W, O(n^2), and the residual is W^T (W x) - rhs
    (``_gram_operator``).  Number types, refinement and
    ConditioningError are as in ``mp_pd_solve``; a W holding inf or NaN
    is refused up front.
    """
    low, apply = _gram_operator(_finite(_to_extended(np.asarray(upper))))
    return _refined_solve(low, None, apply, rhs)


def _gram_operator(w: np.ndarray):
    """W^T as the factor of W^T W for ``_sweeps``, and x -> W^T (W x).
    An object W is read once, and its rows and columns serve both; a
    float W sums only its nonzero terms."""
    if w.dtype == object:
        rows, cols = _int_lines(w)
        return (_Factor(cols, rows, w.diagonal()),
                lambda x: _times(cols, _times(rows, x)))

    def apply(x):
        wx, out = np.empty_like(x), np.empty_like(x)
        for i in range(x.size):
            wx[i] = dot(w[i, i:], x[i:])
        for i in range(x.size):
            out[i] = dot(w[:i + 1, i], wx[:i + 1])
        return out

    return w.T, apply
