"""The meaning of each precision mode lives in ``_multiprec.py`` alone.

Every other module writes each pipeline step once, independent of dtype;
this test keeps branches on a precision mode or on object dtype from
growing back there.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jacobi_bc"
PRECISION_BRANCH = re.compile(
    r"(if|elif|and|or) .*(PrecisionMode\.|dtype *[!=]= *object|object in \()")


def test_pattern_catches_a_precision_branch():
    assert PRECISION_BRANCH.search("    if precision is PrecisionMode.DOUBLE:")
    assert PRECISION_BRANCH.search("    if w.dtype == object:")
    assert PRECISION_BRANCH.search("    if object in (a.dtype, b.dtype):")


def test_no_precision_branches_outside_the_backend():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in modules if path.name != "_multiprec.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if PRECISION_BRANCH.search(line)]
    assert not hits, "\n".join(hits)
