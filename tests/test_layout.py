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
moments, Hankel or connecting matrix.  The package runs on numpy and
mpmath alone: no line imports scipy, and no command loads it; mpmath
comes with the EXTENDED context, at its first use, so DOUBLE commands
skip that import.  The positive-definite factorization and the
substitute-and-refine loop of the solves contract through
``_multiprec.dot``, never ``@``, which rounds an object array after
every product and add.  A public function has a caller in the package
or a stated reason to be kept without one, and a public function of the
backend a caller outside it or a reason.  Controls, responses, moments
and blocks are read by ``core`` alone: no other library module takes an
argument apart through ``getattr(x, "values", ...)`` or
``getattr(x, "matrix", ...)``.  So are the
coefficients: the accessors of ``JacobiCoefficients`` refuse a complex
one, and no other module checks a coefficient with ``require_real``.  A
value enters every mode by the one number table of ``_multiprec``
(``_enter``) and a result leaves for float64 by ``_multiprec._float64``:
no other module casts with ``.astype(float)``.
A smallest eigenvalue is read off Q by one scaled LAPACK loop:
``_top_eigenvalue`` has one caller, ``_leading_top_eigs``.  No module
of the diagnostics builds a wave field: gamma_T takes its frexp table
straight from the forward sweep.  The block builders take the precision
mode as every other route does, and read none off their data.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jacobi_bc"
PRECISION_BRANCH = re.compile(
    r"(if|elif|and|or) .*(PrecisionMode\.|dtype *[!=]= *object|object in \()")
MPMATH_USE = re.compile(r"\bmpmath\b|mp_context|workdps|\bmp\.dps\b")
FILE_FORMAT = re.compile(
    r"^\s*(import\s+([\w.]+\s*,\s*)*|from\s+)(json|csv|io)\b"
    r"|\bdef\s+(to_json_dict|from_json_dict|to_json_list|from_json_list"
    r"|csv_rows|to_csv)\b")
SCIPY_IMPORT = re.compile(r"^\s*(import\s+([\w.]+\s*,\s*)*|from\s+)scipy\b")


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


def test_pattern_catches_a_scipy_import():
    for line in ("import scipy", "import scipy.linalg", "import numpy, scipy",
                 "from scipy import linalg", "from scipy.linalg import eigh",
                 "    import scipy.linalg", "        from scipy import fft"):
        assert SCIPY_IMPORT.search(line), line
    for line in ("import scipyx", "import numpy", "    import numpy as np",
                 "from .spectral import scipy_free", "# import scipy"):
        assert not SCIPY_IMPORT.search(line), line


def test_no_scipy_import():
    hits = _hits(SCIPY_IMPORT, home=None)
    assert not hits, "\n".join(hits)


# Every command in DOUBLE, in one new interpreter, on a small finite
# family; then one EXTENDED command.  Each line printed is the precision,
# the command and whether mpmath is loaded after it.  None of them loads
# scipy.
_MPMATH_PROBE = """
import contextlib, io, json, os, sys
import jacobi_bc, jacobi_bc.cli
assert "mpmath" not in sys.modules


def write(name, obj):
    path = os.path.join(sys.argv[1], name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def run(precision, *argv):
    out = io.StringIO()
    # kernel and hb take no --precision: they compute in float64
    mode = [] if argv[0] in ("kernel", "hb") else ["--precision", precision]
    with contextlib.redirect_stdout(out):
        code = jacobi_bc.cli.main([*argv, *mode])
    assert code == 0, argv
    print(precision, argv[0], "mpmath" in sys.modules)
    return json.loads(out.getvalue())


co = write("co.json", {"a": [1, 0.8, 1.2, 0.9], "b": [0.1, -0.2, 0.0, 0.3]})
for precision in ("double", "rational"):
    run(precision, "simulate", "--input", co, "--T", "5")
    r = write("r.json", run(precision, "response", "--input", co, "--T", "7"))
    s = write("s.json", run(precision, "moments", "--input", r))
    run(precision, "moments", "--input", s)
    for data in (r, s):
        run(precision, "recover", "--input", data)
        run(precision, "connect", "--input", data)
    run(precision, "connect", "--input", co, "--T", "4")
    if precision == "double":
        run(precision, "diagnose", "--input", co, "--N-max", "4")
        run(precision, "kernel", "--input", co, "--T", "4")
        run(precision, "hb", "--input", co, "--T", "4")
run("extended", "response", "--input", co, "--T", "7")
assert "scipy" not in sys.modules
"""


def test_double_commands_never_load_mpmath(tmp_path):
    """mpmath comes with the EXTENDED context, at its first use: no DOUBLE
    command loads it, nor a RATIONAL one that takes no root or
    eigenvalue (those of ``diagnose`` do).  ``kernel`` and ``hb`` take no
    ``--precision`` and load it in no run.  No command loads scipy."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _MPMATH_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    loaded = [line for line in lines if line[2] == "True"]
    assert loaded == [["extended", "response", "True"]], lines
    assert sorted({tuple(line[:2]) for line in lines[:-1]}) == sorted(
        [(p, c) for p in ("double", "rational")
         for c in ("simulate", "response", "moments", "recover", "connect")]
        + [("double", c) for c in ("diagnose", "kernel", "hb")])


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


FIELD_ROUTE = {"solve_finite", "solve_semi_infinite", "_full_field"}


def _module_calls(source):
    """The names every call in ``source`` makes, as names or attributes."""
    return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)}


def test_calls_catch_the_field_route():
    source = """
from .dynamics import solve_finite

def classify(coeffs, n_max, precision):
    field = solve_finite(coeffs, n_max, [1], n_max, precision)
    return dynamics.solve_semi_infinite(coeffs, [1]), _full_field(coeffs)
"""
    assert _module_calls(source) & FIELD_ROUTE == FIELD_ROUTE
    assert not _module_calls("from .dynamics import solve_finite\n"
                             "KEY = ('dynamics', 'solve_finite')\n")


def test_classify_builds_no_wave_field():
    # gamma_T takes the sweep's frexp fields (``coefficient_eigs``): no
    # module of the diagnostics makes the field's cells
    source = (PACKAGE / "determinacy.py").read_text()
    hits = _module_calls(source) & FIELD_ROUTE
    assert not hits, hits


SOLVE_LOOP = {"_sweeps", "_refined_solve", "gram_solve", "_gram_operator",
              "_sweep", "pd_factor", "mp_pd_solve"}


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


# The object modes keep their values in one integer form in
# ``_multiprec.py``: one reader takes numbers apart and one emitter rounds
# them back, so no fifth integer form grows its own reading or rounding.
FIELD_READ = re.compile(r"\.(_mpf_|_mpc_|numerator|denominator)\b")
NORMALIZE_CALL = re.compile(r"\bnormalize\(")
READERS = {"_read", "_enter"}    # _enter re-homes an mpf with its fields
EMITTERS = {"_round"}            # the rounding ``_emitted`` and dot use


def _owners(pattern, source):
    """The functions of ``source`` (methods as Class.method, and
    "<module>" outside any) with a line that ``pattern`` matches."""
    spans = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            spans.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, ast.ClassDef):
            spans += [(f"{node.name}.{item.name}", item.lineno,
                       item.end_lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return {next((name for name, first, last in spans
                  if first <= number <= last), "<module>")
            for number, line in enumerate(source.splitlines(), 1)
            if pattern.search(line)}


def test_pattern_catches_a_field_read_outside_the_reader():
    source = """
def _read(values):
    def parts(x):
        return x.numerator, x.denominator
    return [x._mpf_ for x in values]

class _Form:
    def extend(self, x):
        self.re.append(x._mpc_[0])

def _is_mpc(x):
    return hasattr(x, "_mpc_")

def _cell(x):
    return x.denominator
"""
    assert _owners(FIELD_READ, source) == {"_read", "_Form.extend", "_cell"}
    for line in ('    return hasattr(x, "_mpf_")', "    numerator = 3",
                 "    den = vec.den", "    ints = vec.re"):
        assert not FIELD_READ.search(line), line


def test_only_the_reader_takes_numbers_apart():
    hits = _owners(FIELD_READ, (PACKAGE / "_multiprec.py").read_text())
    assert hits <= READERS, hits - READERS


def test_pattern_catches_a_normalize_call_outside_the_emitter():
    source = """
from mpmath.libmp import normalize

def _round(man, exp):
    return normalize(0, man, exp, man.bit_length(), 169, "n")

def _normalised(vec, rational):
    return vec

def _cell(x, exp):
    return make_mpf(normalize(0, x, exp, x.bit_length(), 169, "n"))
"""
    assert _owners(NORMALIZE_CALL, source) == {"_round", "_cell"}


def test_only_the_emitter_rounds_to_mpf():
    hits = _owners(NORMALIZE_CALL, (PACKAGE / "_multiprec.py").read_text())
    assert hits <= EMITTERS, hits - EMITTERS


# Every public function has a caller in the package (``cli.py`` counts)
# or a stated reason to be kept without one, so a wrapper that only tests
# call cannot land unexplained, and an entry whose function gained a
# caller or left ``__all__`` goes.
UNCALLED_PUBLIC = {
    "apply_response": "the response operator R f of the paper, the "
                      "convolution twin of the forward solve",
    "chebyshev_transform": "the exact T_k-to-monomial transform; the "
                           "acceptance suite checks it",
    "connecting_eig_sequences": "beta_T and gamma_T of the data; the "
                                "acceptance suite reads them",
    "connecting_from_spectrum": "the spectral construction of C_T, one "
                                "of the four the acceptance suite compares",
    "eval_chebyshev": "T_t(z) of the paper; the acceptance suite imports it",
    "extension_parameter": "the extension parameter h of the "
                           "limit-circle case, a paper quantity",
    "fourier_image": "the polynomial a state transforms to, a paper "
                     "quantity",
    "hankel_positivity": "the Hankel side of validate_response",
    "kernel_from_E": "the de Branges kernel of E_T, the cross-check of "
                     "kernel_finite",
    "kernel_infinite": "the limit-circle kernel, a paper quantity",
    "krein_solve_hankel": "the Hankel twin of krein_solve",
    "quadrature": "the integral against the spectral measure of A^N",
    "scalar_product": "[F, G] = (C_T f, g) of the paper; the acceptance "
                      "suite checks the reproducing identity with it",
    "solution_via_spectrum": "the spectral representation of the field, "
                             "the oracle of the forward solve",
    "validate_response": "the response characterization of the paper; "
                         "the acceptance suite checks it",
}


def _uncalled(sources):
    """The functions named in the ``__all__`` of ``sources`` ({module
    name: source}) that no code there refers to outside their own def;
    imports and the ``__all__`` strings do not refer."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    public = set()
    for tree in trees.values():
        named = {elt.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__"
                         for t in node.targets)
                 for elt in node.value.elts}
        public |= {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name in named}
    called = set()
    for tree in trees.values():
        for top in tree.body:
            called |= {getattr(node, "id", None) or getattr(node, "attr", None)
                       for node in ast.walk(top)
                       if isinstance(node, (ast.Name, ast.Attribute))
                       } - {getattr(top, "name", None)}
    return public - called


def test_scan_catches_a_public_function_without_a_caller():
    sources = {"a.py": '''
__all__ = ["used", "attribute", "unused", "recursive"]

def used(x):
    return x

def attribute(x):
    return x

def unused(x):
    return used(x)

def recursive(n):
    return recursive(n - 1) if n else 0

def _private(x):
    return x
''', "b.py": '''
from .a import unused
from . import a

__all__ = ["caller"]

def caller(x):
    return a.attribute(x)

if __name__ == "__main__":
    caller(1)
'''}
    assert _uncalled(sources) == {"unused", "recursive"}


def test_public_functions_have_a_caller_or_a_reason():
    uncalled = _uncalled({path.name: path.read_text()
                          for path in PACKAGE.glob("*.py")})
    assert uncalled <= set(UNCALLED_PUBLIC), \
        f"no caller and no stated reason: {sorted(uncalled - set(UNCALLED_PUBLIC))}"
    assert set(UNCALLED_PUBLIC) <= uncalled, \
        f"stale entries: {sorted(set(UNCALLED_PUBLIC) - uncalled)}"


# ``_multiprec`` has no ``__all__``, so the scan above does not see it.
# Each public top-level function there has a caller in another package
# module or a stated reason: a helper that only the backend calls stays
# private, and out of the benchmark tracer, which wraps every public
# function of a layer.
BACKEND_UNCALLED = {
    "sym_eigenvalues": "the one full eigen-solve, which the backend takes "
                       "past a failed pivot; the tests' reference, and "
                       "perfbench keys it by name",
}


def _uncalled_outside(home, sources):
    """The public top-level functions of ``sources[home]`` ({module name:
    source}) that no other module there refers to; imports do not
    refer."""
    public = {node.name for node in ast.parse(sources[home]).body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    called = {getattr(node, "id", None) or getattr(node, "attr", None)
              for name, source in sources.items() if name != home
              for node in ast.walk(ast.parse(source))
              if isinstance(node, (ast.Name, ast.Attribute))}
    return public - called


def test_scan_catches_a_backend_function_only_the_backend_calls():
    sources = {"_multiprec.py": '''
def lift(x):
    return width(x)

def width(x):
    return x

def attribute(x):
    return x

def imported(x):
    return x

def _private(x):
    return x
''', "dynamics.py": '''
from ._multiprec import lift, imported
from . import _multiprec

def solve(x):
    return lift(x) + _multiprec.attribute(x)
'''}
    assert _uncalled_outside("_multiprec.py", sources) == {"width", "imported"}


def test_backend_functions_have_a_caller_outside_or_a_reason():
    uncalled = _uncalled_outside("_multiprec.py", {
        path.name: path.read_text() for path in PACKAGE.glob("*.py")})
    assert uncalled <= set(BACKEND_UNCALLED), \
        f"no caller outside the backend and no stated reason: " \
        f"{sorted(uncalled - set(BACKEND_UNCALLED))}"
    assert set(BACKEND_UNCALLED) <= uncalled, \
        f"stale entries: {sorted(set(BACKEND_UNCALLED) - uncalled)}"


# Response and moment data are judged by the signs of Wheeler's pivots,
# in the backend (``_data_eigs``); a full eigen-solve is the backend's
# own step past a failed pivot, so no other module judges a block by one.
def _eigen_solvers(sources):
    """The modules of ``sources`` ({module name: source}) other than
    ``_multiprec.py`` that call ``sym_eigenvalues``, by name or as an
    attribute; an import or a string does not call."""
    return sorted(
        name for name, source in sources.items() if name != "_multiprec.py"
        and any(isinstance(node, ast.Call) and "sym_eigenvalues" in
                (getattr(node.func, "id", None),
                 getattr(node.func, "attr", None))
                for node in ast.walk(ast.parse(source))))


def test_scan_catches_an_eigen_solve_outside_the_backend():
    sources = {
        "_multiprec.py": "def last(m, p):\n    return sym_eigenvalues(m, p)\n",
        "connecting.py": "def least(self, p):\n"
                         "    return float(sym_eigenvalues(self.matrix, p)[0])\n",
        "moments.py": "def lowest(m, p):\n"
                      "    return _multiprec.sym_eigenvalues(m, p)[0]\n",
        "determinacy.py": "from ._multiprec import sym_eigenvalues\n"
                          "KEY = ('multiprec', 'sym_eigenvalues')\n",
    }
    assert _eigen_solvers(sources) == ["connecting.py", "moments.py"]


def test_only_the_backend_eigen_solves():
    hits = _eigen_solvers({path.name: path.read_text()
                           for path in PACKAGE.glob("*.py")})
    assert not hits, hits


# A smallest eigenvalue is read off Q by one scaled LAPACK loop,
# ``_leading_top_eigs``, which the eigenvalue sequences and validation
# both run: no second scaled solve grows back beside it.
def _callers(function, sources):
    """The top-level functions (methods as Class.method) of ``sources``
    ({module name: source}) whose body calls ``function``, by name or as
    an attribute, as ``module:caller``."""
    found = set()
    for name, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, ast.FunctionDef):
                defs = [(top.name, top)]
            elif isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{item.name}", item) for item in top.body
                        if isinstance(item, ast.FunctionDef)]
            else:
                continue
            found |= {f"{name}:{owner}" for owner, node in defs
                      if any(isinstance(call, ast.Call) and function in
                             (getattr(call.func, "id", None),
                              getattr(call.func, "attr", None))
                             for call in ast.walk(node))}
    return found


def test_scan_catches_a_second_caller_of_the_top_eigenvalue():
    sources = {"_multiprec.py": '''
def _leading_top_eigs(table, gram=False):
    def per_block(entries):
        return entries
    return [_top_eigenvalue(block) for block in per_block(table)]

def _last_min_eig(matrix, nu, shift, precision):
    block = np.ldexp(mant, exps - top)
    return np.ldexp(1 / _top_eigenvalue(block @ block.T), -2 * top)

def _top_eigenvalue(block):
    return np.linalg.eigvalsh(block)[-1]

KEY = "_top_eigenvalue"
''', "moments.py": '''
class Reader:
    def top(self, block):
        return _multiprec._top_eigenvalue(block)
'''}
    assert _callers("_top_eigenvalue", sources) == {
        "_multiprec.py:_leading_top_eigs", "_multiprec.py:_last_min_eig",
        "moments.py:Reader.top"}


def test_the_top_eigenvalue_has_one_caller():
    callers = _callers("_top_eigenvalue", {
        path.name: path.read_text() for path in PACKAGE.glob("*.py")})
    assert callers == {"_multiprec.py:_leading_top_eigs"}, callers


# ``core`` reads every control (``_read_control``) and every response or
# moment sequence (``sequence_values``, ``_data_head``).  ``cli.py`` is
# exempt: it turns result objects into files.
VALUES_READ = re.compile(r"""getattr\(\s*\w+\s*,\s*["']values["']""")
VALUES_READERS = {"core.py", "cli.py"}


def _values_reads(sources):
    """``module:line`` of each ``getattr(<name>, "values", ...)`` in
    ``sources`` ({module name: source}) outside VALUES_READERS."""
    return [f"{name}:{number}"
            for name, source in sources.items() if name not in VALUES_READERS
            for number, line in enumerate(source.splitlines(), 1)
            if VALUES_READ.search(line)]


def test_scan_catches_a_values_read_outside_core():
    sources = {"core.py": 'x = np.asarray(getattr(seq, "values", seq))\n',
               "cli.py": 'arr = getattr(values, "values", values)\n',
               "spectral.py": 'def image(control):\n'
                              '    f = getattr(control, "values", control)\n'
                              '    g = getattr( control ,\'values\', None)\n'
                              '    return getattr(control, "matrix", f)\n'}
    assert _values_reads(sources) == ["spectral.py:2", "spectral.py:3"]


def test_only_core_reads_values_off_an_argument():
    hits = _values_reads({path.name: path.read_text()
                          for path in PACKAGE.glob("*.py")})
    assert not hits, hits


# ``core`` reads every block argument (``block_values``), with no
# exemption: a module that takes ``.matrix`` off an argument itself reads
# a nested list by a rule of its own.
MATRIX_READ = re.compile(r"""getattr\(\s*\w+\s*,\s*["']matrix["']""")


def _matrix_reads(sources):
    """``module:line`` of each ``getattr(<name>, "matrix", ...)`` in
    ``sources`` ({module name: source}) outside ``core.py``."""
    return [f"{name}:{number}"
            for name, source in sources.items() if name != "core.py"
            for number, line in enumerate(source.splitlines(), 1)
            if MATRIX_READ.search(line)]


def test_scan_catches_a_matrix_read_outside_core():
    sources = {"core.py": 'x = _read_array(getattr(block, "matrix", block))\n',
               "debranges.py": 'def solve(x):\n'
                               '    m = np.asarray(getattr(x, "matrix", x))\n'
                               '    h = getattr( x ,\'matrix\', None)\n'
                               '    return getattr(x, "values", m)\n',
               "cli.py": 'rows = getattr(conn, "matrix", conn)\n'}
    assert _matrix_reads(sources) == ["debranges.py:2", "debranges.py:3",
                                      "cli.py:1"]


def test_only_core_reads_a_matrix_off_an_argument():
    hits = _matrix_reads({path.name: path.read_text()
                          for path in PACKAGE.glob("*.py")})
    assert not hits, hits


# The accessors of ``JacobiCoefficients`` in ``core`` refuse a complex
# coefficient; a route-level check elsewhere would be a second policy.
COEFFICIENT_NAMES = {"a", "b"}


def _coefficient_checks(sources):
    """``module:line`` of each ``require_real`` call in ``sources``
    ({module name: source}) outside ``core.py`` whose name, its second
    argument or ``name=``, is a coefficient's."""
    hits = []
    for module, source in sources.items():
        if module == "core.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call) and "require_real" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None))):
                continue
            names = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "name"]
            if any(isinstance(n, ast.Constant) and n.value in COEFFICIENT_NAMES
                   for n in names):
                hits.append(f"{module}:{node.lineno}")
    return hits


def test_scan_catches_a_coefficient_check_outside_core():
    sources = {"core.py": 'require_real(values, "a", 0)\n',
               "dynamics.py": 'def lift_all(co, n):\n'
                              '    a = require_real(co.a_head(n), "a")\n'
                              '    b = _multiprec.require_real(\n'
                              '        co.b_head(n), name="b", first=1)\n'
                              '    require_real(rv, "r")\n'
                              '    return require_real(values, name)\n'}
    assert _coefficient_checks(sources) == ["dynamics.py:2", "dynamics.py:3"]


def test_only_core_refuses_a_complex_coefficient():
    hits = _coefficient_checks({path.name: path.read_text()
                                for path in PACKAGE.glob("*.py")})
    assert not hits, hits


# A float64 result leaves by ``_multiprec._float64``, and a value enters
# float64 by the number table (``_multiprec._enter``): a module that casts
# with ``.astype(float)`` itself converts by a rule of its own, one that
# raises OverflowError on an exact value beyond float64.
FLOAT_CAST = re.compile(r"\.astype\(\s*(float|np\.float64)\b")
FLOAT_CASTERS = {"core.py", "_multiprec.py"}


def _float_casts(sources):
    """``module:line`` of each ``.astype(float)`` in ``sources`` ({module
    name: source}) outside FLOAT_CASTERS."""
    return [f"{name}:{number}"
            for name, source in sources.items() if name not in FLOAT_CASTERS
            for number, line in enumerate(source.splitlines(), 1)
            if FLOAT_CAST.search(line)]


def test_scan_catches_a_float_cast_outside_the_rules():
    sources = {"core.py": "    return values.astype(float)\n",
               "_multiprec.py": "    return arr.astype(float, copy=False)\n",
               "inverse.py": "ratios = np.sqrt((piv / piv[0]).astype(float))\n"
                             "b = alpha.astype( float ).tolist()\n"
                             "c = x.astype(np.float64, copy=False)\n"
                             "d = x.astype(np.result_type(x, float))\n"
                             "e = _as_floats(alpha)\n"}
    assert _float_casts(sources) == ["inverse.py:1", "inverse.py:2",
                                     "inverse.py:3"]


def test_only_the_float_rules_cast_to_float():
    hits = _float_casts({path.name: path.read_text()
                         for path in PACKAGE.glob("*.py")})
    assert not hits, hits


# The block builders compute in the mode they are given, DOUBLE unless
# told otherwise, as every other data route does: none reads its
# arithmetic off the number type of its data with ``mode_of``.
MODE_OF = re.compile(r"\bmode_of\b")
BUILDERS = ("connecting_from_response", "connecting_from_hankel",
            "build_hankel", "apply_response")


def test_pattern_catches_a_mode_read_off_the_data():
    lines = ["from ._multiprec import lift, mode_of",
             "    _check_block_memory(size, mode_of(rv), 'Hankel block')",
             "    lam = _transform_matrix(size, precision)"]
    assert [bool(MODE_OF.search(line)) for line in lines] == [
        True, True, False]


def test_builders_take_the_mode():
    import jacobi_bc
    for name in BUILDERS:
        parameter = inspect.signature(
            getattr(jacobi_bc, name)).parameters["precision"]
        assert parameter.default is jacobi_bc.PrecisionMode.DOUBLE, name


def test_block_modules_read_no_mode_off_their_data():
    hits = [f"{name}:{number}"
            for name in ("connecting.py", "moments.py")
            for number, line in enumerate(
                (PACKAGE / name).read_text().splitlines(), 1)
            if MODE_OF.search(line)]
    assert not hits, hits
