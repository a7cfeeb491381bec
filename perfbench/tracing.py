"""Layer spans and computed work counts, recorded from outside the package.

Every public function defined in a layer module, except the helpers in
``UNTRACED``, is wrapped while a traced operation runs, and the wrapper is
rebound in every ``jacobi_bc.*`` namespace that holds the original
(``from .dynamics import response_vector`` binds the name at import time).
Lazy imports inside functions resolve through the defining module at call
time, so they see the wrapper too.

A span is recorded only where a call crosses into another layer; a call
from a layer into its own public functions runs unwrapped inside the
caller's span.  ``core`` holds data classes and validation and has no
boundary of its own, so its time counts toward its callers' self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = {
    "jacobi_bc.cli": "cli",
    "jacobi_bc.dynamics": "dynamics",
    "jacobi_bc.spectral": "spectral",
    "jacobi_bc.moments": "moments",
    "jacobi_bc.connecting": "connecting",
    "jacobi_bc.inverse": "inverse",
    "jacobi_bc.determinacy": "determinacy",
    "jacobi_bc.debranges": "debranges",
    "jacobi_bc._multiprec": "multiprec",
}

# Per-element conversion and the precision-context factory: a span would time
# the wrapper rather than the work, whose cost stays in the caller's self time.
UNTRACED = {("multiprec", "as_mpf"), ("multiprec", "mp_context")}

# Work counts computed from call arguments, not measured inside the program.
WORK_COUNTS = ("dynamics.cells", "connecting.entries", "multiprec.eig_calls",
               "multiprec.eig_n3", "multiprec.factor_n3", "inverse.factor_n3")


def _order(matrix) -> int:
    return np.asarray(matrix).shape[0]


def _control_length(control) -> int:
    return control.horizon if hasattr(control, "horizon") else len(control)


def _block_key(matrix):
    arr = np.asarray(matrix)
    if arr.dtype == object:
        return arr.shape, tuple(arr.ravel().tolist())
    return arr.shape, arr.dtype.str, arr.tobytes()


def _cells_semi_infinite(tr, a):
    h = a["horizon"] or _control_length(a["control"])
    tr.work["dynamics.cells"] += h * h


def _cells_finite(tr, a):
    h = a["horizon"] or _control_length(a["control"])
    tr.work["dynamics.cells"] += a["size"] * h


def _cells_control(tr, a):
    tr.work["dynamics.cells"] += a["horizon"] ** 2


def _entries(tr, a):
    size = a["size"]
    if size is None:
        size = _order(getattr(a["hankel"], "matrix", a["hankel"]))
    tr.work["connecting.entries"] += size * size


def _eig(tr, a):
    tr.work["multiprec.eig_calls"] += 1
    tr.work["multiprec.eig_n3"] += _order(a["matrix"]) ** 3
    tr.blocks.add(_block_key(a["matrix"]))


def _mp_factor(tr, a):
    tr.work["multiprec.factor_n3"] += _order(a["matrix"]) ** 3


def _inverse_factor(tr, a):
    tr.work["inverse.factor_n3"] += a["horizon"] ** 3


COUNTERS = {
    ("dynamics", "solve_semi_infinite"): _cells_semi_infinite,
    ("dynamics", "solve_finite"): _cells_finite,
    ("dynamics", "control_operator"): _cells_control,
    ("connecting", "connecting_from_response"): _entries,
    ("connecting", "connecting_from_spectrum"): _entries,
    ("connecting", "gram_from_control"): _entries,
    ("connecting", "connecting_from_hankel"): _entries,
    ("multiprec", "sym_eigenvalues"): _eig,
    ("multiprec", "mp_cholesky_lower"): _mp_factor,
    ("multiprec", "mp_pd_solve"): _mp_factor,
    ("inverse", "recover_from_response"): _inverse_factor,
    ("inverse", "recover_from_moments"): _inverse_factor,
}


class Tracer:
    """Spans of traced operations, kept in memory until the run ends.

    A span is ``[id, name, layer, parent_id, op, start, end, child_s, error]``;
    ``child_s`` is the time covered by its direct child spans, so its self
    time is ``end - start - child_s``.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.work = Counter()
        self.blocks = set()
        self.distinct_blocks = 0
        self._bindings = self._find_bindings()

    def _find_bindings(self):
        wrappers = {}
        for modname, layer in LAYERS.items():
            for name, fn in vars(sys.modules[modname]).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == modname
                        and (layer, name) not in UNTRACED):
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, name))
        bindings = []
        for modname, module in list(sys.modules.items()):
            if modname != "jacobi_bc" and not modname.startswith("jacobi_bc."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    fn, wrapper = wrappers[id(value)]
                    bindings.append((module, attr, fn, wrapper))
        return bindings

    def _wrap(self, fn, layer, name):
        counter = COUNTERS.get((layer, name))
        signature = inspect.signature(fn)
        label = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments)
            stack = self.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[2] == layer:
                return fn(*args, **kwargs)
            span = [len(self.spans), label, layer,
                    parent[0] if parent else None, self.op, 0.0, 0.0, 0.0, None]
            self.spans.append(span)
            stack.append(span)
            span[5] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[8] = type(exc).__name__
                raise
            finally:
                span[6] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[7] += span[6] - span[5]

        return wrapper

    @contextlib.contextmanager
    def traced(self, op_id):
        """Wrappers bound for the duration of one op."""
        self.op = op_id
        self.blocks = set()
        for module, attr, _fn, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, fn, _wrapper in self._bindings:
                setattr(module, attr, fn)
            self.distinct_blocks += len(self.blocks)
            self.op = None

    def layer_totals(self):
        """Per layer: calls, self seconds and exceptions, over all spans."""
        out = {layer: {"calls": 0, "self_s": 0.0, "errors": 0}
               for layer in LAYERS.values()}
        for span in self.spans:
            row = out[span[2]]
            row["calls"] += 1
            row["self_s"] += span[6] - span[5] - span[7]
            row["errors"] += span[8] is not None
        return out

    def span_records(self):
        keys = ("id", "name", "layer", "parent", "op", "start", "end",
                "child_s", "error")
        return [dict(zip(keys, span)) for span in self.spans]
