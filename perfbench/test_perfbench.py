"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import importlib
import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_program()

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads_run_py_accepts():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(bench_workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_is_correct_and_prints_only_declared_metrics(tmp_path, workload):
    record = run.run(workload, seed=5, seconds=0, trace=False, sizes=bench_workloads.TINY,
                     work_root=tmp_path / "work", out_dir=tmp_path / "out")
    check_record(record, tmp_path, units("end_to_end"))


def test_tiny_traced_run_covers_every_workload(tmp_path):
    record = run.run("fit-cli", seed=5, seconds=0, trace=True, sizes=bench_workloads.TINY,
                     work_root=tmp_path / "work", out_dir=tmp_path / "out")
    check_record(record, tmp_path, units("per_layer"))
    assert list(record["workloads"]) == list(run.WORKLOAD_NAMES)
    lines = (tmp_path / "out" / record["trace_file"]).read_text().splitlines()
    assert lines[0] == "span,parent,root,name,workload,start_ns,end_ns"
    assert {line.split(",")[4] for line in lines[1:]} == set(run.WORKLOAD_NAMES)
    times = [v["value"] for k, v in record["result"]["metrics"].items() if k.endswith(".self_s")]
    assert all(t > 0 for t in times)


def check_record(record, tmp_path, declared):
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    failures = [f for part in record["workloads"].values() for f in part["failures"]]
    assert result["correct"] and result["failed"] == 0, failures
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())
    assert record["env"]["seed"] == 5 and record["env"]["nproc"] >= 1


def test_traced_run_restores_every_wrapped_name(tmp_path):
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in bench_trace.WRAPPED}
    run.run("fit-cli", seed=2, seconds=0, trace=True, sizes=bench_workloads.TINY,
            work_root=tmp_path / "work", out_dir=tmp_path / "out")
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a} left wrapped"

    tracer = bench_trace.Tracer("t")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("a failing pass")
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn


def test_self_time_is_duration_minus_children():
    tracer = bench_trace.Tracer("t")

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    tracer.wrap(outer, "outer")()
    selfs = tracer.self_times()
    assert selfs["leaf"][0] == 2 and selfs["outer"][0] == 1
    assert 0.04 <= selfs["leaf"][1] < 0.08
    assert 0.01 <= selfs["outer"][1] < 0.03
    assert selfs["outer"][1] + selfs["leaf"][1] == pytest.approx(tracer.root_seconds())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
