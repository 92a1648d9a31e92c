"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest dimonbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import worker
import workloads
from dimon import congruence


@pytest.fixture(scope="module")
def traced():
    """One untraced and one traced pass of every workload, for seeds 1 and 2."""
    out = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.build_jobs(workload)
        for seed in (1, 2):
            out[workload, seed] = worker.measure(jobs, workload, seed, seconds=0, trace=1)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_give_same_answers_and_counts(traced, workload):
    a, b = traced[workload, 1], traced[workload, 2]
    assert a["failed"] == b["failed"] == 0, a["problems"] + b["problems"]
    assert a["attempted"] == b["attempted"] and a["undecided"] == b["undecided"]
    assert a["absent"] == b["absent"] == []
    assert [{k: p[k] for k in tracing.COUNTS} for p in a["layers"]] == \
        [{k: p[k] for k in tracing.COUNTS} for p in b["layers"]]


def test_layers_a_workload_bypasses_stay_idle(traced):
    monoid = traced["monoid", 1]["layers"][0]
    consequence = traced["consequence", 1]["layers"][0]
    assert monoid["congruence.kernel_calls"] == 0
    assert consequence["monoids.closure_calls"] == 0
    assert consequence["congruence.kernel_calls"] == len(workloads.build_jobs("consequence"))


def test_metric_names_match_benchmark_json(traced):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    raw = traced["verify", 1]
    assert set(run.end_to_end(raw, [1.0])) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.per_layer(raw, 1.0)) == {m["name"] for m in spec["per_layer"]}


def test_tracer_passes_results_through_and_reports_absent_names(monkeypatch):
    stats_record = (congruence._kernel.STATUS_COMPLETE, [[0]], None, {"steps": 1})
    monkeypatch.setattr(congruence._kernel, "run", lambda *args: stats_record)
    monkeypatch.delattr(congruence, "normal_forms")
    t = tracing.Tracer()
    t.install()
    try:
        assert congruence._kernel.run(1, [], 10, 10) is stats_record
        assert t.absent == ["dimon.congruence.normal_forms"]
    finally:
        t.uninstall()
    assert t.counts["congruence.kernel_calls"] == 1
    assert t.counts["congruence.classes_final"] == 1
    assert not hasattr(congruence, "normal_forms")


def test_check_counts_contradictions_and_rising_undecided():
    ref = workloads.load_reference()
    cases = ref["consequence"]
    decided = next(k for k, v in cases.items() if v["at_cap"] == "consequence")
    open_at_cap = next(k for k, v in cases.items() if v["at_high_cap"] == "capped")
    settled_high = next(k for k, v in cases.items()
                        if v["at_cap"] == "capped" and v["at_high_cap"] == "consequence")
    check = workloads.check
    assert check(ref, "consequence", decided, {"outcome": "capped"})
    assert check(ref, "consequence", decided, {"outcome": "not_consequence"})
    assert not check(ref, "consequence", open_at_cap, {"outcome": "not_consequence"})
    assert check(ref, "consequence", open_at_cap, {"error": "KeyError: 'x'"})
    assert check(ref, "consequence", settled_high, {"outcome": "not_consequence"})
    assert not check(ref, "consequence", settled_high, {"outcome": "consequence"})
    key, expected = next(iter(ref["monoid"].items()))
    assert check(ref, "monoid", key, {**expected, "size": expected["size"] + 1})


def test_consequence_jobs_fail_on_a_value_error_that_is_no_verdict(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("caps must be positive")

    monkeypatch.setattr(congruence, "is_consequence", broken)
    jobs = workloads.build_jobs("consequence")
    out = worker.measure(jobs, "consequence", 1, seconds=0, trace=0)
    assert out["failed"] == out["attempted"] == len(jobs)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "dimonbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "dimonbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
