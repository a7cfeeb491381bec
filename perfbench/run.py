#!/usr/bin/env python3
"""Benchmark of the jacobi-bc pipeline: three seeded closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload recover_double --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload with one closed-loop client.  A run makes a
fixed number of operations, ``--seconds`` times the workload's baseline
rate in whole cycles, so the same ``--seconds`` gives the same op count,
and the same tail percentile, on every commit.  ``--trace 0`` times the
operations and prints the end-to-end metrics; ``--trace 1`` runs half as
many families twice each, untraced and traced in alternating order, and
prints the per-layer metrics and the tracing overhead.  Op and set-up
times are scaled to a fixed host speed, measured by a reference loop run
next to them (see REFERENCE_S); the raw times are kept in the record.
Every operation is checked against an independent oracle.  Human-readable
lines come first; the last line of standard output is one JSON object.  A
record with the provenance of the run, and for traced runs the spans, is
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One closed-loop client: BLAS gets one thread, which is at most nproc.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh-interpreter set-up probes before and after the timed loop, so the
# set-up samples span the run rather than one moment of it.
SETUP_PROBES = (2, 3)
TAIL_BEYOND = 10
# The host's speed drifts by up to 1.6x in phases of seconds to minutes, as
# other tenants load the cores it shares.  A fixed loop of the benchmark's
# own, timed next to every op and set-up, measures that speed, and each
# time is scaled by REFERENCE_S / (the loop's time around it): seconds at
# the speed at which the loop takes REFERENCE_S, the median on the 2-vCPU
# Xeon at 2.1 GHz the baseline comes from.  Raw times stay in the record.
REFERENCE_S = 0.03
# Long enough for a fresh interpreter to import the package and write inputs.
PROBE_TIMEOUT_S = 120

SETUP_TIMES = ("setup_s", "reference_s", "scaled_setup_s")
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(Exception):
    """The package or the inputs could not be prepared."""


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_package():
    """Import jacobi_bc (and its CLI) from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        jb = importlib.import_module("jacobi_bc")
        importlib.import_module("jacobi_bc.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import jacobi_bc from {SRC}: {exc}") from exc
    if not Path(jb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"jacobi_bc was imported from {jb.__file__}, not {SRC}")
    return jb


def reference_loop() -> float:
    """Seconds taken by a fixed mix of Python integer and mpmath arithmetic.

    It calls nothing of the package, so only the host's speed moves it.
    """
    from mpmath import mp, mpf
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    with mp.workdps(50):
        x, y = mpf(1) / 3, mpf(0)
        for _ in range(4_000):
            y = y * x + x
    return time.perf_counter() - t0


def setup(workload, seed: int, size: int, workdir: Path):
    """Import the package, then generate and write the inputs; both timed."""
    t0 = time.perf_counter()
    jb = import_package()
    t1 = time.perf_counter()
    import_rss = _maxrss_mb()
    workdir.mkdir(parents=True, exist_ok=True)
    families = workload.generate(random.Random(f"{workload.name}/{seed}"),
                                 size, str(workdir))
    t2 = time.perf_counter()
    reference_loop()  # its first call may import mpmath
    reference = reference_loop()
    return jb, families, {"import_s": t1 - t0, "inputs_s": t2 - t1,
                          "setup_s": t2 - t0, "reference_s": reference,
                          "scaled_setup_s": (t2 - t0) * REFERENCE_S / reference,
                          "import_rss_mb": import_rss}


def probe_setup(name: str, seed: int) -> dict:
    """Set-up times of a fresh interpreter for the same workload and seed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload, jb, family, size, tracer=None, op_id=None):
    """One checked operation: (latency seconds, ok, failure reason, note).

    The note, or None, names the package's documented limit under which the
    op passed where the strict oracle alone would have failed it.
    """
    context = tracer.traced(op_id) if tracer else contextlib.nullcontext()
    try:
        with context:
            t0 = time.perf_counter()
            try:
                out = workload.operate(jb, family, size)
            finally:
                latency = time.perf_counter() - t0
    except Exception as exc:  # a failed op is counted, never fatal
        return latency, False, type(exc).__name__, None
    try:
        ok, note = workload.check(family, out, size)
    except Exception as exc:  # an unreadable output fails its check
        return latency, False, f"check:{type(exc).__name__}", None
    return latency, ok, None if ok else "check", note


def op_count(workload, seconds: float, trace: bool) -> int:
    """Families a run goes through: whole cycles, at least one.

    Sized so that a run on the baseline takes about ``seconds``; a traced
    run goes through half as many, because it runs each one twice.  An
    untraced run makes at least 2 * TAIL_BEYOND ops, so that ``op_tail_s``
    is at least the lower median.
    """
    per_family = 2 if trace else 1
    cycles = round(seconds * workload.baseline_rate
                   / (per_family * workload.cycle))
    if not trace:
        cycles = max(cycles, -(-2 * TAIL_BEYOND // workload.cycle))
    return max(1, cycles) * workload.cycle


def closed_loop(workload, jb, families, size, count, tracer=None):
    """``count`` operations back to back, cycling through ``families``.

    With a tracer every family runs twice, untraced and traced, the order
    alternating, so both halves see the same inputs and the same drift.
    The reference loop runs between ops; an op's latency is scaled by the
    mean of the loop's times just before and just after it.
    """
    records = []
    before = reference_loop()
    for k in range(count):
        family = families[k % len(families)]
        modes = (False,) if tracer is None else ((False, True) if k % 2 == 0
                                                 else (True, False))
        for traced in modes:
            latency, ok, reason, note = run_one(workload, jb, family, size,
                                                tracer if traced else None, k)
            after = reference_loop()
            reference = (before + after) / 2
            before = after
            records.append({"op": k, "family": k % len(families),
                            "traced": traced, "latency_s": latency,
                            "reference_s": reference,
                            "scaled_s": latency * REFERENCE_S / reference,
                            "ok": ok, "failure": reason, "note": note})
    return records


def latency_summary(latencies):
    """Median and the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {"p50_s": statistics.median(ordered), "tail_s": ordered[rank - 1],
            "tail_percentile": 100.0 * rank / n, "tail_beyond": n - rank,
            "ops": n}


def end_to_end(records, setup_samples, peak_rss, scaled=True):
    """The end-to-end metrics, from scaled times or from raw ones."""
    lat = [r["scaled_s" if scaled else "latency_s"] for r in records]
    setup_s = [x["scaled_setup_s" if scaled else "setup_s"]
               for x in setup_samples]
    summary = latency_summary(lat)
    ok = sum(r["ok"] for r in records)
    values = {"ops_per_s": ok / sum(lat), "op_p50_s": summary["p50_s"],
              "op_tail_s": summary["tail_s"], "peak_rss_mb": peak_rss,
              "setup_s": statistics.median(setup_s)}
    return values, summary


def per_layer(records, tracer):
    import tracing
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    values, units = {}, {}
    for layer, row in tracer.layer_totals().items():
        for key, unit in (("calls", "count/op"), ("self_s", "s/op"),
                          ("errors", "count/op")):
            values[f"{layer}.{key}"] = row[key] / n
            units[f"{layer}.{key}"] = unit
    for key in tracing.WORK_COUNTS:
        values[key] = tracer.work[key] / n
        units[key] = "count/op"
    eig_calls = tracer.work["multiprec.eig_calls"]
    values["multiprec.eig_useful_ratio"] = (tracer.distinct_blocks / eig_calls
                                            if eig_calls else 0.0)
    units["multiprec.eig_useful_ratio"] = "ratio"
    values["trace_overhead"] = (
        statistics.median(r["scaled_s"] for r in traced)
        / statistics.median(r["scaled_s"] for r in plain))
    units["trace_overhead"] = "ratio"
    return values, units


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(jb, workload, seed, size, seconds, trace):
    import mpmath
    import numpy
    import scipy
    return {
        "git_commit": git_commit(), "workload": workload.name,
        "seed": seed, "sizes": {workload.size_label: size},
        "run_seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "jacobi_bc": jb.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "clients": 1, "loop": "closed",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: int | None = None, setup_probes=SETUP_PROBES,
                 out_dir: Path = OUT) -> dict:
    """Run one workload in this process; returns the full results record."""
    workload = wl.WORKLOADS[name]
    size = size or workload.default_size
    workdir = out_dir / "work" / f"{name}-{seed}-{os.getpid()}"
    try:
        jb, families, setup_info = setup(workload, seed, size, workdir)
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
        before, after = (0, 0) if trace else setup_probes
        samples = [{k: setup_info[k] for k in SETUP_TIMES}]
        samples += [probe_setup(name, seed) for _ in range(before)]
        # The negative control runs the op's code first, so it also warms it up.
        control = run_one(workload, jb,
                          workload.corrupt(families[0], str(workdir)), size)
        records = closed_loop(workload, jb, families, size,
                              op_count(workload, seconds, trace), tracer)
        peak_rss = _maxrss_mb()
        samples += [probe_setup(name, seed) for _ in range(after)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    record = {
        "provenance": provenance(jb, workload, seed, size, seconds, trace),
        "attempted": len(records), "failed": failed,
        "error_rate": failed / len(records),
        "oracle_notes": dict(collections.Counter(
            r["note"] for r in records if r["note"])),
        "negative_control": {"attempted": 1, "failed": int(not control[1]),
                             "failure": control[2]},
        "setup": dict(setup_info, samples=samples),
        "records": records,
    }
    # The negative control must be counted as a failure for the run to be correct.
    record["correct"] = failed == 0 and not control[1]
    if trace:
        values, units = per_layer(records, tracer)
        record["spans"] = tracer.span_records()
    else:
        values, summary = end_to_end(records, samples, peak_rss)
        units = END_TO_END_UNITS
        record["latency"] = summary
        record["unscaled_metrics"] = end_to_end(records, samples, peak_rss,
                                                scaled=False)[0]
        record["import_rss_mb"] = setup_info["import_rss_mb"]
    record["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in values.items()}
    return record


def save_record(record: dict, out_dir: Path = OUT) -> Path:
    prov = record["provenance"]
    stem = f"{prov['workload']}-seed{prov['seed']}-trace{prov['trace']}"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        with open(out_dir / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    path = out_dir / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def print_report(record: dict, path: Path) -> None:
    prov = record["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  "
          f"sizes {prov['sizes']}  nproc {prov['nproc']}  "
          f"blas threads {prov['blas_threads']['OPENBLAS_NUM_THREADS']}")
    unscaled = record.get("unscaled_metrics", {})
    for name, m in record["metrics"].items():
        raw = (f"   (unscaled {unscaled[name]:.6g})"
               if name in unscaled and name != "peak_rss_mb" else "")
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{raw}")
    print(f"  {'error_rate':32s} {record['error_rate']:.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    if "latency" in record:
        lat = record["latency"]
        print(f"  op_tail_s is p{lat['tail_percentile']:.1f} of {lat['ops']} ops "
              f"({lat['tail_beyond']} beyond); import-only RSS "
              f"{record['import_rss_mb']:.1f} MB")
    for note, count in record["oracle_notes"].items():
        print(f"  passed under the package's {note}: {count} ops")
    ctl = record["negative_control"]
    print(f"  negative control: {ctl['failed']} of 1 failed ({ctl['failure']})")
    print(f"  record: {path}")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        if args.workload == "all":
            return run_all(args)
        if args.probe_setup:
            workload = wl.WORKLOADS[args.workload]
            workdir = OUT / "work" / f"probe-{os.getpid()}"
            try:
                info = setup(workload, args.seed, workload.default_size,
                             workdir)[2]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({k: info[k] for k in SETUP_TIMES}))
            return 0
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    path = save_record(record)
    print_report(record, path)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
