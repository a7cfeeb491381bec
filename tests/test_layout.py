"""The meaning of each precision mode lives in ``_multiprec.py`` alone.

Every other module writes each pipeline step once, independent of dtype;
these tests keep branches on a precision mode or on object dtype, and
any use of mpmath or of its global precision, from growing back there.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jacobi_bc"
PRECISION_BRANCH = re.compile(
    r"(if|elif|and|or) .*(PrecisionMode\.|dtype *[!=]= *object|object in \()")
MPMATH_USE = re.compile(r"\bmpmath\b|mp_context|workdps|\bmp\.dps\b")


def _hits(pattern):
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    return [f"{path.name}:{number}: {line.strip()}"
            for path in modules if path.name != "_multiprec.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]


def test_pattern_catches_a_precision_branch():
    assert PRECISION_BRANCH.search("    if precision is PrecisionMode.DOUBLE:")
    assert PRECISION_BRANCH.search("    if w.dtype == object:")
    assert PRECISION_BRANCH.search("    if object in (a.dtype, b.dtype):")


def test_no_precision_branches_outside_the_backend():
    hits = _hits(PRECISION_BRANCH)
    assert not hits, "\n".join(hits)


def test_pattern_catches_mpmath_use():
    assert MPMATH_USE.search("from mpmath import mpf")
    assert MPMATH_USE.search("import mpmath")
    assert MPMATH_USE.search("    with mp_context():")
    assert MPMATH_USE.search("    with workdps(50):")
    assert MPMATH_USE.search("    mp.dps = 50")
    assert not MPMATH_USE.search("    x = lift(values, precision)")


def test_no_mpmath_outside_the_backend():
    hits = _hits(MPMATH_USE)
    assert not hits, "\n".join(hits)
