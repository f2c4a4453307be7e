"""Smoke test of the benchmark on the tiny configuration.

It checks the output contract only: every metric named in BENCHMARK.json
is present with its unit, the output checks pass, and the benchmark
refuses to run without the nfclm sources.  There is no timing bound.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = [w["name"] for w in spec()["workloads"]]


def run(root, workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported(workload, trace):
    # the traced run uses a second seed, so two seeds are exercised
    proc = run(ROOT, workload, 11 + trace, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    for key in ("git_sha", "python", "nproc", "seed", "source_sha256"):
        assert key in report
    if trace:
        assert report["worker"]["untraced"]["digest"] == report["worker"]["traced"]["digest"]
    else:
        assert report["worker"]["utt_n"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(str(tmp_path), "score-entity", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
