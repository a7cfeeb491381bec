"""The benchmark's own checks, at tiny sizes: names, units, schema, counts.

Run with ``python -m pytest perfbench``.
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as wl

TINY = {"recover_double": 16, "diagnose_extended": 6, "exact_solves": 8}


def _spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _units(section):
    return {m["name"]: m["unit"] for m in _spec()[section]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_schema(name, tmp_path):
    record = run.run_workload(name, seed=3, seconds=0, trace=False,
                              size=TINY[name], setup_probes=(0, 0),
                              out_dir=tmp_path)
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= wl.WORKLOADS[name].cycle
    assert line["failed"] == 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert set(record["unscaled_metrics"]) == set(line["metrics"])
    assert record["negative_control"]["failed"] == 1
    prov = record["provenance"]
    for key in ("git_commit", "seed", "sizes", "nproc", "python", "numpy",
                "scipy", "mpmath", "blas_threads"):
        assert key in prov
    assert prov["sizes"] == {wl.WORKLOADS[name].size_label: TINY[name]}
    assert record["latency"]["ops"] == line["attempted"]


@pytest.mark.parametrize("name", list(TINY))
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    runs = [run.run_workload(name, seed=5, seconds=0, trace=True,
                             size=TINY[name], out_dir=tmp_path)
            for _ in range(2)]
    for record in runs:
        assert record["correct"] is True
        assert {k: m["unit"] for k, m in record["metrics"].items()} == \
            _units("per_layer")
        assert record["spans"]
    counted = [k for k in runs[0]["metrics"]
               if k in tracing.WORK_COUNTS or k.endswith((".calls", ".errors"))
               or k == "multiprec.eig_useful_ratio"]
    first, second = ([r["metrics"][k]["value"] for k in counted] for r in runs)
    assert first == second


def test_failed_op_is_counted_not_fatal(tmp_path):
    workload = wl.WORKLOADS["exact_solves"]
    jb = run.import_package()
    families = workload.generate(random.Random(1), TINY["exact_solves"],
                                 str(tmp_path))
    bad = workload.corrupt(families[0], str(tmp_path))
    records = run.closed_loop(workload, jb, [bad, families[1]],
                              TINY["exact_solves"], 2)
    assert [r["ok"] for r in records] == [False, True]
    assert records[0]["failure"] is not None


@pytest.mark.parametrize("name", list(TINY))
def test_op_count_is_whole_cycles_fixed_by_seconds(name):
    workload = wl.WORKLOADS[name]
    for trace in (False, True):
        counts = {run.op_count(workload, 30, trace) for _ in range(3)}
        assert len(counts) == 1
        assert counts.pop() % workload.cycle == 0
    assert run.op_count(workload, 0, True) == workload.cycle
    # untraced runs keep ten ops beyond a tail that is not below the median
    assert run.op_count(workload, 0, False) >= 2 * run.TAIL_BEYOND


def test_latency_summary_tail_has_ten_beyond():
    summary = run.latency_summary([float(i) for i in range(1, 41)])
    assert summary["tail_s"] == 30.0
    assert summary["tail_beyond"] == 10
    assert summary["tail_percentile"] == 75.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_solves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("ratio, verdict, ok", [
    (2.0, "LikelyIndeterminate", True),
    (2.0, "Inconclusive", False),
    (1.5, "Inconclusive", True),
    (1.5, "LikelyIndeterminate", False),
    (1.5, "LikelyDeterminate", False),
])
def test_geometric_oracle_follows_the_depth_60_policy(ratio, verdict, ok,
                                                      tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"verdict": verdict}))
    family = {"indeterminate": True, "ratio": ratio, "report": str(report)}
    assert wl._check_diagnose(family, 0, 24)[0] is ok


def test_chebyshev_reference_recovers_the_family():
    family = wl._gen_exact(random.Random(2), 8, "")[0]
    a, b = wl._chebyshev(family["moments"], 8, 50)
    truth = family["a"][1:8] + family["b"][:7]
    assert wl._max_error(a + b, truth) < 1e-14


def test_max_error_counts_nan_as_a_miss():
    assert wl._max_error([1.0, float("nan")], [1.0, 2.0]) == float("inf")
    assert wl._max_error([float("nan"), 2.0], [1.0, 2.0]) == float("inf")
