"""Each cross-cutting decision lives in one module.

The meaning of each precision mode lives in ``_multiprec.py`` alone:
every other module writes each pipeline step once, independent of dtype,
and these tests keep branches on a precision mode or on object dtype, and
any use of mpmath or of its global precision, from growing back there.
Every file format lives in ``cli.py`` alone: the library returns arrays
and result objects, and no other module reads or writes JSON or CSV.
Coefficient recovery in ``inverse.py`` runs a recurrence on the data and
builds or factors no matrix, and ``classify`` in ``determinacy.py``
reads its sequences off the coefficients: it forms no response vector,
moments, Hankel or connecting matrix.  No module imports scipy when it
is loaded: LAPACK is imported by its first call, so commands that never
reach it skip the import.  The positive-definite factorization and the
substitute-and-refine loop of the solves contract through
``_multiprec.dot``, never ``@``, which rounds an object array after
every product and add.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jacobi_bc"
PRECISION_BRANCH = re.compile(
    r"(if|elif|and|or) .*(PrecisionMode\.|dtype *[!=]= *object|object in \()")
MPMATH_USE = re.compile(r"\bmpmath\b|mp_context|workdps|\bmp\.dps\b")
FILE_FORMAT = re.compile(
    r"^\s*(import\s+([\w.]+\s*,\s*)*|from\s+)(json|csv|io)\b"
    r"|\bdef\s+(to_json_dict|from_json_dict|to_json_list|from_json_list"
    r"|csv_rows|to_csv)\b")
MODULE_LEVEL_SCIPY = re.compile(r"^(import\s+([\w.]+\s*,\s*)*|from\s+)scipy\b")


def _hits(pattern, home="_multiprec.py"):
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    return [f"{path.name}:{number}: {line.strip()}"
            for path in modules if path.name != home
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


def test_pattern_catches_a_file_format():
    for line in ("import json", "import csv", "import io", "import os, json",
                 "from io import StringIO", "from csv import writer",
                 "    def to_json_dict(self) -> dict:",
                 "    def from_json_dict(cls, obj):",
                 "    def to_json_list(self):", "def from_json_list(items):",
                 "    def csv_rows(self):", "    def to_csv(self) -> str:"):
        assert FILE_FORMAT.search(line), line
    for line in ("import os", "import ioctl", "from .core import JacobiBCError",
                 "from . import inverse", "    payload = to_json(x)",
                 "    rows = field.csv_rows"):
        assert not FILE_FORMAT.search(line), line


def test_no_file_format_outside_the_cli():
    hits = _hits(FILE_FORMAT, home="cli.py")
    assert not hits, "\n".join(hits)


def test_pattern_catches_a_module_level_scipy_import():
    for line in ("import scipy", "import scipy.linalg", "import numpy, scipy",
                 "from scipy import linalg", "from scipy.linalg import eigh"):
        assert MODULE_LEVEL_SCIPY.search(line), line
    for line in ("    import scipy.linalg", "import scipyx", "import numpy",
                 "from .spectral import scipy_free", "# import scipy"):
        assert not MODULE_LEVEL_SCIPY.search(line), line


def test_no_module_level_scipy_import():
    hits = _hits(MODULE_LEVEL_SCIPY, home=None)
    assert not hits, "\n".join(hits)


MATRIX_ROUTE = {"connecting", "build_hankel", "pd_factor"}


def _imports(source):
    """Every module and name an import statement of ``source`` names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_imports_catch_the_matrix_route():
    for source in ("from .connecting import ConnectingMatrix",
                   "from . import connecting",
                   "from .moments import build_hankel, moments_to_response",
                   "from ._multiprec import lift, pd_factor"):
        assert _imports(source) & MATRIX_ROUTE, source
    assert not (_imports("from .moments import moments_to_response")
                & MATRIX_ROUTE)


def test_recovery_builds_no_matrix():
    hits = _imports((PACKAGE / "inverse.py").read_text()) & MATRIX_ROUTE
    assert not hits, hits


DATA_ROUTE = {"response_vector", "response_to_moments", "build_hankel",
              "connecting_from_response"}


def _calls(source, function):
    """The names ``function`` in ``source`` calls, as names or attributes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    target = call.func
                    names.add(getattr(target, "id", None)
                              or getattr(target, "attr", None))
    return names


def test_calls_catch_the_data_route():
    source = """
def classify(coeffs, n_max, precision):
    r = response_vector(coeffs, 2 * n_max - 1, precision)
    s = moments.response_to_moments(r)
    return build_hankel(s, n_max), connecting_from_response(r, n_max)
"""
    assert _calls(source, "classify") == DATA_ROUTE
    assert not _calls(source, "other") & DATA_ROUTE


def test_classify_takes_no_data_route():
    hits = _calls((PACKAGE / "determinacy.py").read_text(),
                  "classify") & DATA_ROUTE
    assert not hits, hits


SOLVE_LOOP = {"_sweeps", "_refined_solve", "gram_solve", "_gram_operator",
              "sweeps", "pd_factor", "mp_pd_solve"}


def _matmul_users(source, functions):
    """The functions of ``functions`` in ``source`` that use ``@``."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in functions
            and any(isinstance(op, ast.MatMult) for op in ast.walk(node))}


def test_pattern_catches_a_matmul_in_the_solve_loop():
    source = """
def gram_solve(w, rhs):
    def apply(x):
        return w.T @ (w @ x)
    return apply

def _sweeps(low, piv, rhs):
    rhs @= low

def _refined_solve(low, piv, apply, rhs):
    return dot(low[0], rhs)

def other(a, b):
    return a @ b
"""
    assert _matmul_users(source, SOLVE_LOOP) == {"gram_solve", "_sweeps"}


def test_solve_loop_contracts_through_dot():
    hits = _matmul_users((PACKAGE / "_multiprec.py").read_text(), SOLVE_LOOP)
    assert not hits, hits
