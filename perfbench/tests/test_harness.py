"""Tests of the benchmark harness itself.

Run:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

STRUCTURE = "structure --format json"


@pytest.fixture(scope="module")
def suite_job():
    job = next(workloads.jobs("suite_dim64", 0))
    outcome = run.run_job(job, traced=False)
    assert outcome["errors"] == []
    return job, outcome


def test_golden_outputs_match_at_this_commit(suite_job):
    job, outcome = suite_job
    gold = golden.load()
    assert golden.check_job(job, outcome["statuses"], outcome["stdout"], gold) == []


def test_corrupted_output_is_a_mismatch(suite_job):
    job, outcome = suite_job
    gold = golden.load()
    assert '"casimir": "3/16"' in outcome["stdout"]
    corrupted = outcome["stdout"].replace('"casimir": "3/16"', '"casimir": "1/4"')
    errors = golden.check_job(job, outcome["statuses"], corrupted, gold)
    assert errors and all("verify --dim 64" in e for e in errors)


def test_numeric_residual_above_tolerance_is_a_mismatch(suite_job):
    job, outcome = suite_job
    docs = golden.split_json(outcome["stdout"])
    for argv, doc in zip(job["commands"], docs):
        if argv[0] == "verify":
            numeric = next(c for c in doc["checks"] if c["mode"] == "numeric")
            numeric["residual"] = 2 * doc["config"]["tolerance"]
    stdout = "\n".join(json.dumps(doc, ensure_ascii=False) for doc in docs)
    errors = golden.check_job(job, outcome["statuses"], stdout, golden.load())
    assert len(errors) == 1 and "above" in errors[0]


def test_corrupted_golden_output_counts_as_failed_job():
    gold = copy.deepcopy(golden.load())
    gold["outputs"][STRUCTURE]["sha256"] = "0" * 64
    summary = run.run_workload("suite_dim64", seed=0, seconds=0, trace=False, gold=gold)
    assert summary["attempted"] == 1
    assert summary["failed"] == 1
    assert summary["error_rate"] == 1.0
    assert any(STRUCTURE in error for error in summary["errors"])


def test_self_times_sum_to_job_time_within_tracing_overhead():
    summary = run.run_workload("suite_dim64", seed=0, seconds=0, trace=True, gold=golden.load())
    assert summary["failed"] == 0
    (traced,) = summary["traces"]
    self_total = sum(stat["self_s"] for stat in traced["stats"].values())
    layer_total = sum(
        stat["self_s"] for name, stat in traced["stats"].items() if name != "job"
    )
    # What the spans do not cover is the time spent counting, which exists
    # only in traced runs and so is part of the tracing overhead.
    uncovered_s = traced["job_s"] - self_total
    assert 0 <= uncovered_s - traced["counting_s"] < 0.005
    assert layer_total >= 0.9 * self_total
    assert traced["absent"] == []
    assert set(summary["per_layer"]) == {m["name"] for m in _spec()["per_layer"]}


def test_seed_picks_inputs_only_where_the_workload_has_them():
    def first(name, seed):
        stream = workloads.jobs(name, seed)
        return [next(stream) for _ in range(3)]

    for name in workloads.WORKLOADS:
        assert first(name, 1) == first(name, 1)
    for name in ("states_dim3000", "suite_dim64"):
        assert first(name, 1) != first(name, 2)
    for name in ("verify_dim1024", "closure_highdeg"):
        assert first(name, 1) == first(name, 2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite_dim64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def _spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)
