"""Smoke tests for the sweep benchmark.

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny override through the same measurement
path as a real run; the test asserts that each named end-to-end and
per-layer metric is emitted with its unit.  Takes about two minutes on
two cores, most of it in the MAR-mask and baselines workloads.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

TINY = {"trials": 1, "theta_points": 2}


def test_benchmark_file_matches_emitted_metric_names():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        list(tracing.LAYER_METRICS)


def _span(id, start, end, parent=None):
    return tracing.Span(id=id, name=f"s{id}", start=start, end=end, parent=parent)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),    # overlaps span 1 by one unit
        _span(3, 8.0, 12.0, parent=0),   # clipped at the parent's end
        _span(4, 2.0, 3.0, parent=1),    # grandchild: only span 1 loses it
        _span(5, 20.0, 21.0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


def _point(r2x, std, n=2, stability=math.nan):
    return SimpleNamespace(mean_r2x=r2x, std_r2x=std, mean_r2y=0.5, std_r2y=std,
                           mean_stability=stability, std_stability=math.nan,
                           trials_effective=n)


def test_point_check_allows_one_standard_error():
    ref = run.point_reference(_point(0.4, 0.1 * math.sqrt(2)))
    assert ref[0] == [0.4, pytest.approx(0.1)]
    assert run.point_matches(_point(0.49, 0.0), ref)
    assert not run.point_matches(_point(0.52, 0.0), ref)
    assert not run.point_matches(_point(0.4, 0.0, stability=0.9), ref)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_emits_every_metric_with_its_unit(name, capsys):
    pkg = run.load_program()
    workload = dataclasses.replace(run.WORKLOADS[name], overrides=TINY,
                                   reference_seeds=1)
    env = run.numeric_environment(workload.threads)
    out_dir = os.path.join(ROOT, f".perfbench-test-{name}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        unit = run.run_unit(pkg, workload, 0, out_dir, env)
    finally:
        shutil.rmtree(out_dir)
    reference = {"0": {item: [run.point_reference(p) for p in result.points]
                       for item, result, _ in unit.results}}
    expected = {False: BENCHMARK["end_to_end"], True: BENCHMARK["per_layer"]}
    for trace in (False, True):
        result = run.report(pkg, workload, 0, 0.0, trace, reference)
        assert (result["correct"], result["failed"]) == (True, 0)
        assert result["attempted"] == unit.trials * (2 if trace else 1)
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in expected[trace]}
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    out = capsys.readouterr().out
    assert "environment" in out
    spans_line = json.loads(out.strip().splitlines()[-1])
    with open(spans_line["spans"], encoding="utf-8") as fh:
        spans = json.load(fh)
    os.remove(spans_line["spans"])
    assert len(spans) == spans_line["count"]
    assert sum(s["name"] == "harness.run_trial" for s in spans) == unit.trials
    assert pkg.harness.run_trial.__module__ == "maskedpls.harness"


def test_command_line_run_is_correct_against_stored_reference():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "transition_t1", "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["metrics"]["trials_per_s"]["value"] > 0


def test_fails_without_program_sources():
    bare = os.path.join(ROOT, ".perfbench-test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "transition_t1",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
