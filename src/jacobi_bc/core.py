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
from fractions import Fraction
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
    """A value that must be real, such as a datum of recovery or a
    coefficient ``classify`` reads, is complex."""


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


def sequence_values(seq) -> np.ndarray:
    """Uniform 1-D array view of ResponseVector/MomentSequence/array-likes."""
    return np.asarray(getattr(seq, "values", seq))


def _as_float(x) -> float:
    """x as a float; an exact int or Fraction beyond float64 gives +-inf,
    as an overflowed float or mpf does."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} value in rational mode")


def _rule_entry(rule, name: str, n: int):
    """rule(n), or ConditioningError naming the entry when the rule
    overflows (a float rule such as ratio ** n past 1.8e308)."""
    try:
        return rule(n)
    except OverflowError as exc:
        raise ConditioningError(
            f"the coefficient rule overflows at {name}_{n}: {exc}") from exc


class JacobiCoefficients:
    """The sequences a_n (n >= 0, with a_0 = 1) and b_n (n >= 1).

    Finite instances hold explicit arrays; generator-backed instances
    produce entries on demand through a rule and memoize them, so
    repeated materialization is deterministic.  Entries keep the numeric
    type they were supplied with: int/Fraction inputs stay exact, which
    is what ``PrecisionMode.RATIONAL`` relies on.
    """

    def __init__(self, a=None, b=None, *, a_rule=None, b_rule=None,
                 generator=None):
        if (a is None) != (b is None):
            raise ValueError("supply both coefficient arrays or neither")
        if a is not None and a_rule is not None:
            raise ValueError("supply explicit arrays or rules, not both")
        if a is not None:
            self._a = tuple(a)
            self._b = tuple(b)
            if not self._a:
                raise ValueError("the off-diagonal array must contain a_0")
            self._a_rule = None
            self._b_rule = None
        else:
            if a_rule is None or b_rule is None:
                raise ValueError("generator-backed coefficients need both rules")
            self._a = None
            self._b = None
            self._a_rule = a_rule
            self._b_rule = b_rule
        self._a_memo: dict[int, object] = {}
        self._b_memo: dict[int, object] = {}
        self._generator = generator

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
        return self._a is not None

    @property
    def size(self):
        """Number of stored diagonal entries, or None for generator-backed."""
        return len(self._b) if self.is_finite else None

    def a(self, n: int):
        """Off-diagonal entry a_n, n >= 0."""
        if n < 0:
            raise IndexError("a is indexed from 0")
        if self.is_finite:
            if n >= len(self._a):
                raise CoefficientUnderrunError(
                    f"coefficient underrun: a_{n} requested, "
                    f"only a_0..a_{len(self._a) - 1} available")
            return self._a[n]
        if n not in self._a_memo:
            self._a_memo[n] = _rule_entry(self._a_rule, "a", n)
        return self._a_memo[n]

    def b(self, n: int):
        """Diagonal entry b_n, n >= 1."""
        if n < 1:
            raise IndexError("b is indexed from 1")
        if self.is_finite:
            if n > len(self._b):
                raise CoefficientUnderrunError(
                    f"coefficient underrun: b_{n} requested, "
                    f"only b_1..b_{len(self._b)} available")
            return self._b[n - 1]
        if n not in self._b_memo:
            self._b_memo[n] = _rule_entry(self._b_rule, "b", n)
        return self._b_memo[n]

    def a_head(self, count: int) -> list:
        """[a_0, ..., a_{count-1}]; a finite family slices its stored
        entries, and ``a`` names the first missing one."""
        if self.is_finite and 0 <= count <= len(self._a):
            return list(self._a[:count])
        return [self.a(n) for n in range(count)]

    def b_head(self, count: int) -> list:
        """[b_1, ..., b_count]; a finite family slices its stored
        entries, and ``b`` names the first missing one."""
        if self.is_finite and 0 <= count <= len(self._b):
            return list(self._b[:count])
        return [self.b(n) for n in range(1, count + 1)]

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
        if horizon < len(self.values):
            raise ValueError("cannot truncate a control; build a shorter one")
        return list(self.values) + [0] * (horizon - len(self.values))


def _freeze_array(obj, name: str, raw, dtype=None) -> np.ndarray:
    """Store a read-only copy of ``raw`` (cast to ``dtype`` when given) as
    field ``name`` of the frozen dataclass ``obj``; returns it.

    An ndarray that is already read-only and owns its memory is stored
    as it is: no other name can write to it, and a copy would double the
    peak memory of the solvers that hand over their fields this way.
    """
    if (type(raw) is np.ndarray and raw.base is None
            and not raw.flags.writeable
            and (dtype is None or raw.dtype == dtype)):
        arr = raw
    else:
        arr = np.array(raw, dtype=dtype, copy=True)
        arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


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
    returns an object array of exact Fractions, EXTENDED one of mpf.
    """
    from ._multiprec import lift
    if size < 1:
        raise ValueError("size must be >= 1")
    diag = lift(coeffs.b_head(size), precision)
    off = lift(coeffs.a_head(size)[1:], precision)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


PROBE_DEPTH = 64   # of generator-backed families in validate_coefficients


def _finite_reals(values: list) -> bool:
    """Whether every entry is a finite int or float (bools are refused
    although Python counts them as ints), in one pass of C builtins.  An
    int beyond float64 raises OverflowError."""
    return (set(map(type, values)) <= {int, float}
            and all(map(math.isfinite, values)))


def validate_coefficients(coeffs: JacobiCoefficients) -> CoefficientValidation:
    """Inspect a_0 = 1, positivity of a_n, and finiteness of the entries.

    Report-style: never raises on bad values.  Finite instances are
    checked in full; generator-backed ones up to PROBE_DEPTH.
    """
    issues = []
    if coeffs.is_finite:
        a_depth = len(coeffs._a)
        b_depth = coeffs.size
    else:
        a_depth = PROBE_DEPTH + 1
        b_depth = PROBE_DEPTH

    def finite(x):
        if isinstance(x, (int, Fraction)):
            return True
        try:
            return math.isfinite(float(x))
        except (TypeError, OverflowError, ValueError):
            return False

    depth = max(a_depth - 1, b_depth)
    a_head, b_head = coeffs.a_head(a_depth), coeffs.b_head(b_depth)
    entries = a_head + b_head
    try:
        plain = _finite_reals(entries)
    except OverflowError:   # a huge int, which the loop below accepts
        plain = False
    # plain ints and floats are checked in one pass; the loop words issues
    if plain and a_head[0] == 1 and min(a_head[1:], default=1) > 0:
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
