"""Self-tests of the benchmark.

    python3 -m pytest perfbench

Every workload runs at its tiny size in a fresh process, as the benchmark
runs it.  These tests are not part of the repository's tier-1 suite (pytest
collects ``tests/`` by default).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

# Per-layer metrics each workload must load (a non-zero value in its trace).
LOADS = {
    "invariants": ["groups.parse_s", "groups.mul_mask_calls", "sequences.pi_calls",
                   "sequences.memo_entries", "factor.enumerate_atoms_s",
                   "factor.atoms", "factor.davenport_s", "factor.lengths_s",
                   "factor.count_factorizations_s", "invariants.unions_s",
                   "invariants.union_products", "invariants.delta_s",
                   "invariants.rho_certificate_s", "invariants.omega_s"],
    "scan": ["groups.parse_s", "sequences.pi_calls", "sequences.pi_self_s",
             "sequences.memo_entries", "checks.property_P_s",
             "checks.seminormality_s", "checks.krull_s"],
    "semigroup": ["groups.mul_mask_calls", "sequences.pi_calls",
                  "classsemi.build_s", "classsemi.discover_folds_s",
                  "classsemi.folded_states", "classsemi.classes",
                  "classsemi.attempts", "classsemi.recognition_checks",
                  "classsemi.reports_s", "invariants.semigroup_davenport_s"],
    "cli": ["groups.parse_s", "sequences.pi_calls", "cli.import_s",
            "report.compute_ms", "report.cache_hits", "report.cache_misses"],
}


def bench(root: str, workload: str, trace: int = 0, size: str = "tiny"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", size],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def _copy_checkout(dst, with_sources: bool = True) -> str:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, os.path.join(dst, "perfbench"), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=ignore)
    return str(dst)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_tiny_size(workload):
    proc, result = bench(ROOT, workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc, result = bench(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "absent []" in proc.stdout.splitlines()
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    for name in LOADS[workload]:
        assert metrics[name]["value"] > 0, name
    assert os.path.exists(os.path.join(ROOT, ".perfbench",
                                       f"trace-{workload}-seed3.json"))


def test_wrong_expected_value_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path)
    path = os.path.join(root, "perfbench", "expected.json")
    with open(path, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    expected["scan"]["property_P_Q8"] = False
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    proc, result = bench(root, "scan")
    assert proc.returncode != 0
    assert result["failed"] > 0 and not result["correct"]
    assert "FAIL scan property_P_Q8" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=False)
    proc, result = bench(root, "invariants", size="full")
    assert proc.returncode != 0
    assert result is None


def test_missing_function_is_reported_absent(monkeypatch):
    import prodone.classsemi

    original = prodone.classsemi.build
    monkeypatch.delattr(prodone.classsemi, "discover_folds")
    t = tracer.Tracer()
    t.install()
    assert prodone.classsemi.build is not original
    t.uninstall()
    assert prodone.classsemi.build is original
    metrics, absent = tracer.layer_metrics(tracer.merge([t.summary()]), 0.0, 0.0)
    assert absent == ["classsemi.discover_folds_s"]
    assert "classsemi.discover_folds_s" not in metrics
    assert "classsemi.build_s" in metrics


def test_self_time_excludes_child_spans(monkeypatch):
    import prodone.factor
    from prodone.groups import parse_group

    group = parse_group("D6")
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_job("davenport")
        prodone.factor.davenport(group)
        t.end_job()
    finally:
        t.uninstall()
    assert t.calls["davenport"] == 1 and t.calls["enumerate_atoms"] == 1
    assert t.total["davenport"] > t.total["enumerate_atoms"]
    assert t.self_time["davenport"] < t.total["davenport"] - t.total["enumerate_atoms"] + 1e-9
    spans = {s[1]: s for s in t.spans}
    assert spans["enumerate_atoms"][4] == spans["davenport"][0]
