"""Shared domain types, index conventions, and precision configuration.

Index conventions used throughout the package:

* the off-diagonal sequence ``a`` is indexed from 0 and carries the
  normalization ``a_0 = 1``;
* the diagonal sequence ``b`` is indexed from 1;
* the N x N principal block ``A^N`` has diagonal ``(b_1, ..., b_N)`` and
  off-diagonal ``(a_1, ..., a_{N-1})``;
* arrays and matrices are 0-based internally; operations whose arguments
  follow the 1-based mathematical numbering say so in their docstrings.

All types are immutable after construction and safe to share across
threads; the coefficient memo caches are append-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "JacobiBCError",
    "CoefficientUnderrunError",
    "InsufficientDataError",
    "NotAResponseVectorError",
    "NotAMomentSequenceError",
    "NotLimitCircleError",
    "ConditioningError",
    "ComplexDataError",
    "ConditioningWarning",
    "PrecisionMode",
    "JacobiCoefficients",
    "BoundaryControl",
    "ResponseVector",
    "MomentSequence",
    "SpectralData",
    "CoefficientValidation",
    "materialize_matrix",
    "validate_coefficients",
    "sequence_values",
    "block_values",
]

class JacobiBCError(Exception):
    """Base class for all toolkit errors."""


class CoefficientUnderrunError(JacobiBCError):
    """A coefficient sequence cannot supply the requested entries."""


class InsufficientDataError(JacobiBCError):
    """A response or moment sequence is too short for the requested size."""


class NotAResponseVectorError(JacobiBCError):
    """The connecting matrix built from the data is not positive definite,
    so the data cannot be the response of any system with real b and
    positive a."""


class NotAMomentSequenceError(JacobiBCError):
    """The Hankel matrix built from the data is not positive definite, so
    the data are not the power moments of a positive measure."""


class NotLimitCircleError(JacobiBCError):
    """A series that converges only in the limit-circle (indeterminate)
    regime was detected as divergent."""


class ConditioningError(JacobiBCError):
    """Pivots or eigenvalues fell below the safe threshold for the active
    precision mode."""


class ComplexDataError(JacobiBCError):
    """A value that must be real, such as a datum of recovery or any
    coefficient read from a ``JacobiCoefficients``, is complex."""


class ConditioningWarning(UserWarning):
    """Computed eigenvalues are at or below the floating-point noise floor."""


class PrecisionMode(Enum):
    """Arithmetic used by precision-sensitive operations.

    DOUBLE is float64 throughout.  EXTENDED switches the ill-conditioned
    steps (simulation feeding Hankel/connecting eigenvalue work, recovery
    pivots) to multiprecision floats.  RATIONAL keeps exact
    integer/rational arithmetic wherever no root or eigenvalue is
    required; it is intended for rational inputs, and eigenvalue routines
    under it fall back to multiprecision floats.
    """

    DOUBLE = "double"
    EXTENDED = "extended"
    RATIONAL = "rational"
    __hash__ = object.__hash__    # in C: the number table keys on a mode


# float64 holds every integer below 2^53 in magnitude: only an entry at
# least that large can be a Python int that numpy's float64 rounded
_EXACT_FLOAT_INTS = 2.0 ** 53


def _read_array(values) -> np.ndarray:
    """The one rule that reads an array argument: an ndarray as it is; a
    list, nested for a block, as numpy reads it, but as an object array
    wherever float64 would round a Python int in it, so that ``lift``
    sees the int."""
    if isinstance(values, np.ndarray):
        return values
    arr = np.asarray(values)
    if arr.dtype.kind in "iufc":
        real = arr.real    # an int is real, whatever the list's dtype
        if (-_EXACT_FLOAT_INTS < np.fmin.reduce(real, None, initial=0)
                and np.fmax.reduce(real, None, initial=0)
                < _EXACT_FLOAT_INTS):
            return arr
        raw = np.array(values, dtype=object)
        if any(type(x) is int and float(x) != x for x in raw.flat):
            return raw
    return arr


def sequence_values(seq) -> np.ndarray:
    """The one reader of a response or moment sequence (``_read_array``)."""
    return _read_array(getattr(seq, "values", seq))


def block_values(block) -> np.ndarray:
    """The one reader of a block, such as a HankelMatrix or a nested list."""
    return _read_array(getattr(block, "matrix", block))


def _data_head(data, count: int, kind: str) -> np.ndarray:
    """The first ``count`` values of ``data`` (``sequence_values``); fewer
    raise InsufficientDataError naming ``kind``, the kind of data.  The
    one length rule of responses and moments: 2T - 1 values for a block
    or a recurrence of size T, T for the response map."""
    values = sequence_values(data)
    if len(values) < count:
        raise InsufficientDataError(
            f"insufficient {kind}: need {count} values, got {len(values)}")
    return values[:count]


def _rule_entry(rule, name: str, n: int):
    """rule(n), or ConditioningError naming the entry when the rule
    overflows (a float rule such as ratio ** n past 1.8e308)."""
    try:
        return rule(n)
    except OverflowError as exc:
        raise ConditioningError(
            f"the coefficient rule overflows at {name}_{n}: {exc}") from exc


class _Entries:
    """One coefficient sequence name_first, name_{first+1}, ...: the
    stored tuple of a finite family, or a rule with its memo, a dict whose
    writes are idempotent, so a family is safe to share across threads."""

    def __init__(self, name: str, first: int, stored=None, rule=None):
        self.name, self.first, self.rule, self.memo = name, first, rule, {}
        self.stored = None if stored is None else tuple(stored)

    def entry(self, n: int):
        name, first, stored = self.name, self.first, self.stored
        if n < first:
            raise IndexError(f"{name} is indexed from {first}")
        if stored is None:
            if n not in self.memo:
                self.memo[n] = _rule_entry(self.rule, name, n)
            return self.memo[n]
        if n - first >= len(stored):
            raise CoefficientUnderrunError(
                f"coefficient underrun: {name}_{n} requested, only "
                f"{name}_{first}..{name}_{first + len(stored) - 1} available")
        return stored[n - first]

    def head(self, count: int) -> list:
        """The first ``count`` entries; ``entry`` names a missing one."""
        stored = self.stored
        if stored is not None and 0 <= count <= len(stored):
            return list(stored[:count])
        return [self.entry(n) for n in range(self.first, self.first + count)]

    def probe(self, depth: int) -> list:
        """Every stored entry, or the rule's first ``depth``."""
        return self.head(depth if self.stored is None else len(self.stored))


class JacobiCoefficients:
    """The sequences a_n (n >= 0, with a_0 = 1) and b_n (n >= 1).

    Finite instances hold explicit arrays; generator-backed instances
    produce entries on demand through a rule and memoize them, so
    repeated materialization is deterministic.  Entries keep the numeric
    type they were supplied with: int/Fraction inputs stay exact, which
    is what ``PrecisionMode.RATIONAL`` relies on.  Each sequence is read
    by one ``_Entries``, which gives ``a``/``b`` and ``a_head``/``b_head``
    alike.  These four are the one place that refuses a complex entry,
    naming the first one read; ``a`` and ``b``, read three times a step
    in the polynomial recurrences, pass an entry of a real kind (by its
    type) untested.  ``validate_coefficients`` reads raw entries.
    """

    def __init__(self, a=None, b=None, *, a_rule=None, b_rule=None,
                 generator=None):
        if (a is None) != (b is None):
            raise ValueError("supply both coefficient arrays or neither")
        if a is not None and a_rule is not None:
            raise ValueError("supply explicit arrays or rules, not both")
        if a is not None:
            self._a, self._b = _Entries("a", 0, a), _Entries("b", 1, b)
            if not self._a.stored:
                raise ValueError("the off-diagonal array must contain a_0")
        else:
            if a_rule is None or b_rule is None:
                raise ValueError("generator-backed coefficients need both rules")
            self._a = _Entries("a", 0, rule=a_rule)
            self._b = _Entries("b", 1, rule=b_rule)
        self._generator = generator
        self._entered = {}    # the float64 a_0, (a_n, b_n) of spectral

    # -- construction -------------------------------------------------

    @classmethod
    def from_arrays(cls, a: Sequence, b: Sequence) -> "JacobiCoefficients":
        """Finite coefficients; ``a`` starts at a_0, ``b`` at b_1."""
        return cls(a=a, b=b)

    @classmethod
    def from_rules(cls, a_rule: Callable[[int], object],
                   b_rule: Callable[[int], object]) -> "JacobiCoefficients":
        """Generator-backed coefficients; the rules receive the 0-based
        index for ``a`` and the 1-based index for ``b``."""
        return cls(a_rule=a_rule, b_rule=b_rule)

    @classmethod
    def free(cls) -> "JacobiCoefficients":
        """a_n = 1, b_n = 0 (free Jacobi matrix)."""
        return cls(a_rule=lambda n: 1, b_rule=lambda n: 0, generator="free")

    @classmethod
    def geometric(cls, ratio=2) -> "JacobiCoefficients":
        """a_n = ratio**n, b_n = 0.

        With ratio > 1 this is the stock limit-circle (indeterminate)
        example; an integer ratio keeps the entries exact.
        """
        return cls(a_rule=lambda n: ratio ** n, b_rule=lambda n: 0,
                   generator="geometric")

    # -- access -------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._a.stored is not None

    @property
    def size(self):
        """Number of stored diagonal entries, or None for generator-backed."""
        return len(self._b.stored) if self.is_finite else None

    def a(self, n: int):
        """Off-diagonal entry a_n, n >= 0."""
        x = self._a.entry(n)
        return (x if _KINDS.get(type(x), complex) is not complex
                else require_real([x], "a", n)[0])

    def b(self, n: int):
        """Diagonal entry b_n, n >= 1."""
        x = self._b.entry(n)
        return (x if _KINDS.get(type(x), complex) is not complex
                else require_real([x], "b", n)[0])

    def a_head(self, count: int) -> list:
        """[a_0, ..., a_{count-1}]; ``a`` names the first missing one."""
        return require_real(self._a.head(count), "a", 0)

    def b_head(self, count: int) -> list:
        """[b_1, ..., b_count]; ``b`` names the first missing one."""
        return require_real(self._b.head(count), "b", 1)

    def __repr__(self):
        if self.is_finite:
            return f"JacobiCoefficients(size={self.size})"
        return f"JacobiCoefficients(generator={self._generator or 'custom'!r})"


@dataclass(frozen=True)
class BoundaryControl:
    """Finite control sequence (f_0, ..., f_{T-1}) applied at site 0."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def horizon(self) -> int:
        return len(self.values)

    @classmethod
    def impulse(cls, horizon: int) -> "BoundaryControl":
        """The delta control (1, 0, ..., 0); integer entries, hence exact."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return cls((1,) + (0,) * (horizon - 1))

    def padded(self, horizon: int) -> list:
        """Values extended by zeros up to ``horizon`` entries."""
        return _zero_extended(self, horizon)


def _read_control(control, horizon: int | None = None):
    """The one reader of a control: the horizon, by default the length of
    ``control`` (a BoundaryControl or a sequence f_0, f_1, ...), and its
    values, which a route zero-extends after its size checks.  A control
    longer than the horizon raises ValueError: no route drops a value.
    Every route that takes a control reads it here."""
    values = (control.values if isinstance(control, BoundaryControl)
              else control)
    if horizon is None:
        horizon = len(values)
    if len(values) > horizon:
        raise ValueError(f"the control has {len(values)} values, more than "
                         f"the horizon {horizon}; pass a shorter control")
    return horizon, values


def _zero_extended(control, horizon: int) -> list:
    """The values of ``control``, read by ``_read_control`` at
    ``horizon``, as a list extended by int zeros to ``horizon`` entries."""
    horizon, values = _read_control(control, horizon)
    return list(values) + [0] * (horizon - len(values))


def _freeze_array(obj, name: str, raw, dtype=None) -> np.ndarray:
    """Store a read-only copy of ``raw``, read by ``_read_array`` and cast
    to ``dtype`` when given, as field ``name`` of the frozen dataclass
    ``obj``; returns it.

    An ndarray that is already read-only and owns its memory is stored
    as it is: no other name can write to it, and a copy would double the
    peak memory of the solvers that hand over their fields this way.
    """
    if (type(raw) is np.ndarray and raw.base is None
            and not raw.flags.writeable
            and (dtype is None or raw.dtype == dtype)):
        arr = raw
    else:
        arr = np.array(_read_array(raw), dtype=dtype, copy=True)
        arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


class _BlockMixin:
    """A frozen square block ``matrix``, which ``_kind`` names when it
    is not square."""

    def __post_init__(self):
        arr = _freeze_array(self, "matrix", self.matrix)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"{self._kind} must be square")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


class _SequenceMixin:
    def __post_init__(self):
        if _freeze_array(self, "values", self.values).ndim != 1:
            raise ValueError("expected a 1-D sequence")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def as_array(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class ResponseVector(_SequenceMixin):
    """Convolution kernel (r_0, r_1, ...) of the boundary response map."""

    values: np.ndarray


@dataclass(frozen=True)
class MomentSequence(_SequenceMixin):
    """Power moments (s_0, s_1, ...) of a measure on the real line."""

    values: np.ndarray


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of A^N paired with weights 1/rho_k of the discrete
    spectral measure; weights sum to 1 under the a_0 = 1 normalization."""

    lambdas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if lam.shape != w.shape or lam.ndim != 1:
            raise ValueError("eigenvalues and weights must be matching 1-D arrays")
        order = np.argsort(lam)
        lam = _freeze_array(self, "lambdas", lam[order])
        w = _freeze_array(self, "weights", w[order])
        if lam.size > 1 and np.min(np.diff(lam)) <= 0:
            raise ValueError("eigenvalues must be pairwise distinct")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")

    @property
    def size(self) -> int:
        return self.lambdas.size

    @property
    def pairs(self) -> list:
        return list(zip(self.lambdas.tolist(), self.weights.tolist()))


@dataclass(frozen=True)
class CoefficientValidation:
    """Report-style outcome of validate_coefficients."""

    valid: bool
    issues: tuple
    checked_depth: int


def materialize_matrix(coeffs: JacobiCoefficients, size: int,
                       precision: PrecisionMode = PrecisionMode.DOUBLE) -> np.ndarray:
    """Dense symmetric tridiagonal block A^N.

    The diagonal is (b_1, ..., b_N) and the off-diagonal (a_1, ..., a_{N-1});
    each off-diagonal value is written to both triangles from the same
    source entry, so the result is exactly symmetric in every mode.
    Entries are lifted to the number type of ``precision``: RATIONAL
    returns an object array of exact Fractions, EXTENDED one of mpf, and
    DOUBLE refuses an entry beyond float64 with ConditioningError.  A
    complex entry raises ComplexDataError, as every coefficient read does.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    a, b = coeffs.a_head(size), coeffs.b_head(size)
    diag, off = lift(b, precision), lift(a[1:], precision)
    # + the mode's zero: np.diag fills an object block with int 0
    return (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            + lift([0], precision))


PROBE_DEPTH = 64   # of generator-backed families in validate_coefficients


def _finite_reals(values: list) -> bool:
    """Whether every entry is a finite int or float, in one pass of C
    builtins.  Bools are refused although Python counts them as ints, and
    an int beyond float64 is not finite."""
    try:
        return (set(map(type, values)) <= {int, float}
                and all(map(math.isfinite, values)))
    except OverflowError:    # math.isfinite of an int beyond float64
        return False


def validate_coefficients(coeffs: JacobiCoefficients) -> CoefficientValidation:
    """Inspect a_0 = 1, positivity of a_n, and finiteness of the entries.

    Report-style: never raises on bad values.  Finite instances are
    checked in full; generator-backed ones up to PROBE_DEPTH.
    """
    issues = []
    def finite(x):    # a finite real number of the number table, any size
        kind, number = _kind(x)
        return kind not in (None, complex) and number - number == 0

    a_head = coeffs._a.probe(PROBE_DEPTH + 1)
    b_head = coeffs._b.probe(PROBE_DEPTH)
    depth = max(len(a_head) - 1, len(b_head))
    # plain ints and floats are checked in one pass; the loop words issues
    # (and accepts an int beyond float64, which is not plain)
    if (_finite_reals(a_head + b_head) and a_head[0] == 1
            and min(a_head[1:], default=1) > 0):
        return CoefficientValidation(valid=True, issues=(), checked_depth=depth)
    a0, *a_rest = a_head
    if not finite(a0):
        issues.append("a_0 is not finite")
    elif a0 != 1:
        issues.append(f"a_0 convention violated: expected a_0 = 1, got {a0}")
    for n, an in enumerate(a_rest, 1):
        if not finite(an):
            issues.append(f"a_{n} is not finite")
        elif not an > 0:
            issues.append(f"negative off-diagonal: a_{n} = {an}")
    for n, bn in enumerate(b_head, 1):
        if not finite(bn):
            issues.append(f"b_{n} is not finite")
    return CoefficientValidation(valid=not issues, issues=tuple(issues),
                                 checked_depth=depth)


# last: the precision backend imports the types above
from ._multiprec import _KINDS, _kind, lift, require_real  # noqa: E402
