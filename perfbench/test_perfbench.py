"""The benchmark's own tests: every workload at its smallest size, a gate
that must bite, and the metric names BENCHMARK.json promises.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload_small(name):
    workload = workloads.build(name, seed=3, small=True)
    try:
        workload.prepare()
        passes = run.run_passes(workload, seconds=0, minimum=1)
        traced, metrics, problems = run.traced_run(workload, seconds=0)
    finally:
        workload.close()
    assert [f for p in passes + traced for f in p.failures] == []
    # Reference blocks time the machine around every untraced operation.
    assert all(len(p.block_s) == len(p.times) + 1 and len(p.scaled) == len(p.times)
               for p in passes)
    assert problems == []
    assert set(metrics) == {n for n, _ in spans.PER_LAYER}
    assert metrics["trace.absent_spans"] == 0
    report = run.result(passes, [], {"wall_ref": 1.0})
    assert report["correct"] and report["failed"] == 0 and report["attempted"] == len(workload.ops)


def test_traced_counts_match_the_workload():
    workload = workloads.build("cache", seed=5, small=True)
    try:
        workload.prepare()
        _, metrics, _ = run.traced_run(workload, seconds=0)
    finally:
        workload.close()
    # 4 queries of 3 codes, 3 distinct classes: each class misses once.
    assert (metrics["cache.hits"], metrics["cache.misses"]) == (9, 3)
    assert metrics["cache.bytes_written"] > 0


def test_wrong_golden_value_fails_the_run(monkeypatch):
    images, explored, pruned, sha = workloads.GOLDEN_CENSUS["CF"]
    monkeypatch.setitem(workloads.GOLDEN_CENSUS, "CF", (images + 1, explored, pruned, sha))
    workload = workloads.build("census", seed=1, small=True)
    p = run.run_pass(workload)
    report = run.result([p], [], {})
    assert report["failed"] == 1 and not report["correct"]
    assert p.failures[0].startswith("census CF")


def test_exception_counts_as_failure():
    workload = workloads.Workload("broken", [workloads.Op("boom", lambda: 1 / 0, lambda r: None)])
    report = run.result([run.run_pass(workload)], [], {})
    assert (report["attempted"], report["failed"]) == (1, 1)


def test_missing_wrapped_name_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install([("codecat.enumeration", "_no_such_name", "x", None),
                    ("codecat.no_such_module", "f", "y", None)])
    tracer.uninstall()
    assert tracer.absent == ["codecat.enumeration._no_such_name", "codecat.no_such_module.f"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
