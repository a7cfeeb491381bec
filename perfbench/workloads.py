"""Seeded inputs, operations and independent oracles for the three workloads.

Inputs are drawn from ``random.Random(seed)`` and written or kept in memory
before the first timed operation.  Each oracle is computed from the
generating data or by code in this file, never by the path being timed.

Only the standard library is imported at module level: the benchmark times
``import jacobi_bc`` (and with it numpy, scipy and mpmath) as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

RECOVER_T = 1024
DIAGNOSE_N = 24
EXACT_T = 40

# classify() reads a_n to depth 60, so Carleman families carry 65 entries.
CARLEMAN_LEN = 65
# Families per run; diagnose costs vary with the family, so it draws more.
POOL = 8
DIAGNOSE_POOL = 16
KERNEL_RTOL = 1e-10
RECOVER_TOL = 1e-10


@dataclass
class Workload:
    name: str
    default_size: int
    size_label: str
    # ops of one cycle differ in kind; runs make whole cycles so the mix is fixed
    cycle: int
    # ops per second of the baseline (jacobi_bc 0.1.0, 2-vCPU Xeon at 2.1 GHz);
    # it fixes a run's op count, so every commit reports the same percentiles
    baseline_rate: float
    generate: Callable      # (rng, size, workdir) -> list of families
    operate: Callable       # (jb, family, size) -> output
    # (family, output, size) -> (ok, note); a note names the documented
    # limit of the package under which an op that misses the strict oracle
    # is still correct
    check: Callable
    corrupt: Callable       # (family, workdir) -> family whose op must fail


def _cli(jb, argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        return jb.cli.main(argv)


def _write_json(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- recover_double --------------------------------------------------------
# a_n = 1 - d_n, d_n = u_n/(n+1)^2, b_n = v_n d_n: ||A|| <= 2 keeps C_T
# well-conditioned in double; arrays of length 2T cover the whole cone.


def _gen_recover(rng, size, workdir):
    families = []
    for k in range(POOL):
        n_len = 2 * size
        a, b = [1.0], []
        for n in range(1, n_len + 1):
            d = rng.uniform(0.0, 0.5) / (n + 1) ** 2
            if n < n_len:
                a.append(1.0 - d)
            b.append(rng.uniform(-1.0, 1.0) * d)
        base = os.path.join(workdir, f"recover{k}")
        families.append({
            "a": a, "b": b,
            "coeffs": _write_json(base + "-coeffs.json",
                                  {"a": a, "b": b, "generator": None}),
            "response": base + "-response.json",
            "recovered": base + "-recovered.json",
        })
    return families


def _op_recover(jb, fam, size):
    rc = _cli(jb, ["response", "--input", fam["coeffs"], "--T", str(2 * size - 1),
                   "--output", fam["response"]])
    if rc != 0:
        return rc
    if fam.get("perturb"):
        obj = _read_json(fam["response"])
        obj["response"][2] += 1e-3
        _write_json(fam["response"], obj)
    return _cli(jb, ["recover", "--input", fam["response"], "--T", str(size),
                     "--output", fam["recovered"]])


def _check_recover(fam, rc, size):
    if rc != 0:
        return False, None
    out = _read_json(fam["recovered"])
    a_true, b_true = fam["a"][1:size], fam["b"][:size - 1]
    if len(out["a"]) != len(a_true) or len(out["b"]) != len(b_true):
        return False, None
    return all(abs(x - y) <= RECOVER_TOL
               for x, y in zip(out["a"] + out["b"], a_true + b_true)), None


def _corrupt_recover(fam, workdir):
    """Same family, one response entry perturbed after the forward solve."""
    return dict(fam, perturb=True,
                response=os.path.join(workdir, "control-response.json"),
                recovered=os.path.join(workdir, "control-recovered.json"))


# -- diagnose_extended -----------------------------------------------------
# Three in four ops: geometric a_n = q^n (indeterminate).  One in four:
# Carleman-determinate a_n = (n+1)^p, p <= 1, b_n = 0.
GEOMETRIC_Q = (1.5, 3.0)
# classify()'s documented policy: LikelyIndeterminate needs the relative
# tail of both deficiency sums over the last 5 of 60 terms below 1e-10.
# For q below about 1.544 it is not, and the policy answers Inconclusive.
DEFICIENCY_DEPTH = 60
TAIL_WINDOW = 5
TAIL_TOL = 1e-10
# Within 1% of the tolerance the package's double-precision sums may fall
# on either side; both verdicts are accepted there.
TAIL_BAND = 0.01


def _gen_diagnose(rng, size, workdir):
    families = []
    for k in range(DIAGNOSE_POOL):
        path = os.path.join(workdir, f"diagnose{k}.json")
        if k % 4 == 3:
            p = rng.uniform(0.5, 1.0)
            a = [(n + 1) ** p for n in range(CARLEMAN_LEN)]
            obj = {"a": a, "b": [0.0] * CARLEMAN_LEN, "generator": None}
            indeterminate = False
        else:
            q = rng.uniform(*GEOMETRIC_Q)
            obj = {"a": [], "b": [],
                   "generator": {"kind": "geometric", "params": {"ratio": q}}}
            indeterminate = True
        families.append({"coeffs": _write_json(path, obj),
                         "indeterminate": indeterminate,
                         "ratio": q if indeterminate else None,
                         "report": os.path.join(workdir, f"diagnose{k}-report.json")})
    return families


def _op_diagnose(jb, fam, size):
    return _cli(jb, ["diagnose", "--input", fam["coeffs"], "--N-max", str(size),
                     "--precision", "extended", "--output", fam["report"]])


def _geometric_tail(q):
    """Largest relative 5-term tail of sum |p_n(i)|^2 and sum |q_n(i)|^2.

    p_n and q_n (n = 1..60) of a_n = q^n, b_n = 0 by the three-term
    recurrence in 30-digit mpmath.
    """
    from mpmath import mp, mpc, mpf
    with mp.workdps(30):
        z, ratio = mpc(0, 1), mpf(q)
        tails = []
        for first, second in ((mpf(1), z / ratio), (mpf(0), 1 / ratio)):
            vals = [first, second]
            for n in range(2, DEFICIENCY_DEPTH):
                vals.append((z * vals[-1] - ratio ** (n - 1) * vals[-2])
                            / ratio ** n)
            squares = [abs(v) ** 2 for v in vals]
            tails.append(float(sum(squares[-TAIL_WINDOW:]) / sum(squares)))
    return max(tails)


def _check_diagnose(fam, rc, size):
    """Geometric families are indeterminate; Carleman families are not.

    A geometric family gets LikelyIndeterminate where its deficiency sums
    converge by classify()'s documented depth-60 test, and Inconclusive,
    never LikelyDeterminate, where they do not.
    """
    if rc != 0:
        return False, None
    verdict = _read_json(fam["report"])["verdict"]
    if not fam["indeterminate"]:
        return verdict != "LikelyIndeterminate", None
    if verdict == "LikelyIndeterminate":
        return _geometric_tail(fam["ratio"]) <= TAIL_TOL * (1 + TAIL_BAND), None
    if verdict == "Inconclusive":
        tail = _geometric_tail(fam["ratio"])
        return tail >= TAIL_TOL * (1 - TAIL_BAND), "depth-60 tail policy"
    return False, None


def _corrupt_diagnose(fam, workdir):
    """A geometric family labelled determinate: the verdict check must fail.

    Its ratio, 2.5, lies well inside the depth-60 test, so the package
    answers LikelyIndeterminate for it whatever the seed drew.
    """
    obj = {"a": [], "b": [],
           "generator": {"kind": "geometric", "params": {"ratio": 2.5}}}
    return dict(fam, indeterminate=False, ratio=None,
                coeffs=_write_json(os.path.join(workdir, "control.json"), obj),
                report=os.path.join(workdir, "control-report.json"))


# -- exact_solves ----------------------------------------------------------
# Library calls, because the CLI cannot take mp-valued data or reach the
# Krein route.

# Extended precision is 50 significant digits.  Where the moment problem
# is too ill-conditioned for 1e-10 at 50 digits, the extended recovery must
# be within ATTAINABLE_FACTOR of what Chebyshev's algorithm, run here at
# the same 50 digits, attains.
EXTENDED_DIGITS = 50
ATTAINABLE_FACTOR = 10


def _moments(a, b, count, dps=60):
    """s_k = (J^k)_{11} of the finite Jacobi block, k < count, in mpmath."""
    from mpmath import mp, mpf
    n = len(b)
    with mp.workdps(dps):
        av = [mpf(x) for x in a]
        bv = [mpf(x) for x in b]
        v = [mpf(0)] * n
        v[0] = mpf(1)
        out = []
        for k in range(count):
            out.append(+v[0])
            # sites beyond count - k cannot reach site 0 in the steps left
            reach = min(k + 2, count - k, n)
            v = [(av[i] * v[i - 1] if i else 0) + bv[i] * v[i]
                 + (av[i + 1] * v[i + 1] if i + 1 < n else 0)
                 for i in range(reach)] + [mpf(0)] * (n - reach)
    return out


def _exact_response(a, b, count):
    """r_0..r_{count-1} in Fractions from the boundary recurrence itself."""
    n = len(b)
    prev = [Fraction(0)] * (n + 2)
    cur = [Fraction(0)] * (n + 2)
    out = []
    for t in range(count):
        cur[0] = Fraction(1 if t == 0 else 0)
        nxt = [Fraction(0)] * (n + 2)
        for i in range(1, min(t + 2, count - t, n) + 1):
            a_right = a[i] if i < len(a) else 0
            nxt[i] = (a_right * cur[i + 1] + a[i - 1] * cur[i - 1]
                      + b[i - 1] * cur[i] - prev[i])
        prev, cur = cur, nxt
        out.append(cur[1])
    return out


def _chebyshev(moments, size, dps):
    """a_1..a_{T-1}, b_1..b_{T-1} from s_0..s_{2T-2} by Chebyshev's algorithm.

    Monic recurrence pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1} built
    from modified moments sigma_{k,l} = <pi_k, x^l>; b_{k+1} = alpha_k and
    a_k = sqrt(beta_k).
    """
    from mpmath import mp, mpf, sqrt
    with mp.workdps(dps):
        mu = [+mpf(x) for x in moments[:2 * size - 1]]
        m = len(mu)
        prev, cur = [mpf(0)] * m, mu
        alpha, beta = [cur[1] / cur[0]], [cur[0]]
        for k in range(1, size):
            nxt = [mpf(0)] * m
            for col in range(k, m - k):
                nxt[col] = (cur[col + 1] - alpha[k - 1] * cur[col]
                            - beta[k - 1] * prev[col])
            beta.append(nxt[k] / cur[k - 1])
            if k < size - 1:
                alpha.append(nxt[k + 1] / nxt[k] - cur[k] / cur[k - 1])
            prev, cur = cur, nxt
        return ([float(sqrt(x)) for x in beta[1:]], [float(x) for x in alpha])


def _max_error(got, want):
    """Largest absolute difference; a NaN counts as infinitely far."""
    errors = (abs(x - y) for x, y in zip(got, want))
    return max((e if e == e else math.inf for e in errors), default=0.0)


def _kernel_reference(a, b, z, lam, size):
    """sum_{n<T} conj(p_n(z)) p_n(lam) by the three-term recurrence in mpmath."""
    from mpmath import mp, mpc, mpf
    with mp.workdps(40):
        total = mpc(0)
        pz_prev = pl_prev = mpc(0)
        pz = pl = mpc(1)
        zz, ll = mpc(z), mpc(lam)
        for n in range(1, size + 1):
            total += mp.conj(pz) * pl
            an, ap, bn = mpf(a[n]), mpf(a[n - 1]), mpf(b[n - 1])
            pz_prev, pz = pz, ((zz - bn) * pz - ap * pz_prev) / an
            pl_prev, pl = pl, ((ll - bn) * pl - ap * pl_prev) / an
        return complex(total)


def _gen_exact(rng, size, workdir):
    import numpy as np
    n_len = 2 * size
    families = []
    for _ in range(POOL):
        a = [1.0] + [rng.uniform(0.5, 2.0) for _ in range(n_len - 1)]
        b = [rng.uniform(-1.0, 1.0) for _ in range(n_len)]
        a8 = [Fraction(1)] + [Fraction(round(8 * x), 8) for x in a[1:]]
        b8 = [Fraction(round(8 * x), 8) for x in b]
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0))
        lam = rng.uniform(-2.0, 2.0)
        families.append({
            "a": a, "b": b, "a8": a8, "b8": b8, "z": z, "lam": lam,
            "moments": np.array(_moments(a, b, 2 * size - 1), dtype=object),
            "response": np.array(_exact_response(a8, b8, 2 * size - 1),
                                 dtype=object),
        })
    return families


def _op_exact(jb, fam, size):
    pm = jb.PrecisionMode
    coeffs = jb.JacobiCoefficients.from_arrays(fam["a"], fam["b"])
    rec_m = jb.inverse.recover_from_moments(fam["moments"], size, pm.EXTENDED)
    rec_r = jb.inverse.recover_from_response(fam["response"], size, pm.RATIONAL)
    kern = jb.debranges.kernel_finite(coeffs, fam["z"], fam["lam"], size,
                                      method="krein", precision=pm.EXTENDED)
    return rec_m, rec_r, kern


def _check_exact(fam, out, size):
    rec_m, rec_r, kern = out
    note = None
    truth = fam["a"][1:size] + fam["b"][:size - 1]
    got = list(rec_m.a) + list(rec_m.b)
    if len(got) != len(truth):
        return False, None
    error = _max_error(got, truth)
    if error > RECOVER_TOL:
        ref_a, ref_b = _chebyshev(fam["moments"], size, EXTENDED_DIGITS)
        attainable = ATTAINABLE_FACTOR * _max_error(ref_a + ref_b, truth)
        if not error <= attainable < math.inf:
            return False, None
        note = "50-digit conditioning"
    exact = [float(x) for x in fam["a8"][1:size] + fam["b8"][:size - 1]]
    if list(rec_r.a) + list(rec_r.b) != exact:
        return False, None
    ref = _kernel_reference(fam["a"], fam["b"], fam["z"], fam["lam"], size)
    return abs(complex(kern) - ref) <= KERNEL_RTOL * abs(ref), note


def _corrupt_exact(fam, workdir):
    """One exact response entry perturbed: rational recovery must not match."""
    response = fam["response"].copy()
    response[2] += Fraction(1, 8)
    return dict(fam, response=response)


WORKLOADS = {
    "recover_double": Workload("recover_double", RECOVER_T, "T", 1, 0.78,
                               _gen_recover, _op_recover, _check_recover,
                               _corrupt_recover),
    "diagnose_extended": Workload("diagnose_extended", DIAGNOSE_N, "N_max", 4,
                                  0.52, _gen_diagnose, _op_diagnose,
                                  _check_diagnose, _corrupt_diagnose),
    "exact_solves": Workload("exact_solves", EXACT_T, "T", 1, 1.5, _gen_exact,
                             _op_exact, _check_exact, _corrupt_exact),
}
