"""Bit-rot guard for bench_e2e: the whole set at smoke scale.

Not part of tier-1 (``testpaths = tests``); run with
``python -m pytest -q benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))


def test_smoke_set_runs_clean_and_matches_the_contract(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "NOT comparable" in done.stdout

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    with open(tmp_path / "result.json", encoding="utf-8") as f:
        result = json.load(f)
    assert result["meta"]["comparable"] is False
    assert sorted(result["workloads"]) == sorted(
        w["name"] for w in contract["workloads"])
    for name, workload in result["workloads"].items():
        assert workload["correct"], (name, workload["checks"])
        assert workload["failed"] == 0 and workload["attempted"] > 0
        for kind in ("end_to_end", "per_layer"):
            assert sorted(workload[kind]) == sorted(
                metric["name"] for metric in contract[kind]), (name, kind)
    assert result["workloads"]["tcp_batch8"]["per_layer"][
        "frontend.batch_size_mean"] == 8
    assert result["workloads"]["replicated_rw"]["per_layer"][
        "repl.records_per_op"] == 1
    assert (tmp_path / "ledger.jsonl").stat().st_size > 0


def test_driver_run_prints_the_result_object_last(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", "inproc_read", "--seed", "3", "--trace", "0",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert "setup_s" in last["metrics"]
