"""One-second runs of all five workloads through the real command line,
checked against BENCHMARK.json, plus the bare-directory refusal."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import E2E_DIR, REPO_ROOT
from workloads import WORKLOADS

RUN = os.path.join(E2E_DIR, "run.py")


def spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def drive(workload, trace, cwd=REPO_ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_one_second_smoke(workload, trace):
    done = drive(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        got = result["metrics"][entry["name"]]
        assert sorted(got) == ["unit", "value"] and got["unit"] == entry["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_accounts_for_the_op_time():
    done = drive("federated_transfer", 1)
    assert done.returncode == 0, done.stderr
    shares = [
        float(line.split()[-2])
        for line in done.stdout.splitlines()
        if line.startswith("   ") and line.rstrip().endswith("%")
    ]
    assert shares and sum(shares) == pytest.approx(100.0, abs=0.1)
    trace_file = os.path.join(E2E_DIR, "results", "trace-federated_transfer.jsonl")
    with open(trace_file, encoding="utf-8") as handle:
        first = json.loads(handle.readline())
    assert sorted(first) == [
        "end_ns", "index", "layer", "name", "parent", "pid", "start_ns",
    ]


def test_refuses_to_run_without_the_system_under_test(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(
        E2E_DIR, bare / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    done = drive(
        "activity_mix", 0, cwd=bare,
        script=str(bare / "benchmarks" / "e2e" / "run.py"),
    )
    assert done.returncode != 0
    assert done.stdout == ""
