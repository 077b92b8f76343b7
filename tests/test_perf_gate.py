"""End-to-end tests of the perf-gate pipeline and the metrics CLI.

Drives ``benchmarks/bench_engine.py`` (script mode) and
``benchmarks/compare_bench.py`` in-process with a small pinned workload:
clean run vs. clean run passes, any drift in a deterministic column
fails, and incomparable metas are rejected.  Also exercises ``python -m
repro metrics`` end to end.
"""

from __future__ import annotations

import glob
import json
import sys
from os import path

import pytest

from repro import cli
from repro.obs import read_jsonl, rows_by_kind, write_jsonl

_BENCHMARKS = path.join(path.dirname(__file__), "..", "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

import bench_engine  # noqa: E402
import bench_fusion  # noqa: E402
import bench_plan  # noqa: E402
import compare_bench  # noqa: E402

QUERIES = "30"
SEED = "7"


def run_bench(out, *extra):
    argv = ["--queries", QUERIES, "--seed", SEED, "--out", str(out)]
    argv.extend(extra)
    assert bench_engine.main(argv) == 0


class TestBenchEngineScript:
    def test_emits_meta_and_phase_rows(self, tmp_path):
        out = tmp_path / "run.jsonl"
        run_bench(out)
        rows = read_jsonl(str(out))
        metas = rows_by_kind(rows, "meta")
        assert len(metas) == 1
        meta = metas[0]
        assert meta["queries"] == 30
        assert meta["seed"] == 7
        phases = rows_by_kind(rows, "phase")
        names = {row["name"] for row in phases}
        assert {"request", "decrypt", "reencrypt", "write_back"} <= names
        request = next(r for r in phases if r["name"] == "request")
        assert request["count"] == 30
        assert request["errors"] == 0

    def test_deterministic_across_runs(self, tmp_path):
        # Looped, not parametrized: the test keeps its one name.
        for lane, lane_main, lane_args in (
            ("engine", bench_engine.main, ["--queries", QUERIES]),
            ("fusion", bench_fusion.main, ["--rounds", "3"]),
            ("plan", bench_plan.main, ["--queries", "8", "--skip-controller"]),
        ):
            first = tmp_path / f"{lane}_a.jsonl"
            second = tmp_path / f"{lane}_b.jsonl"
            for out in (first, second):
                assert lane_main(lane_args + ["--seed", SEED,
                                              "--out", str(out)]) == 0
            one = {r["name"]: r for r in
                   rows_by_kind(read_jsonl(str(first)), "phase")}
            two = {r["name"]: r for r in
                   rows_by_kind(read_jsonl(str(second)), "phase")}
            assert set(one) == set(two)
            for name, row in one.items():
                # Only the engine lane's rows are traced spans with errors.
                for key in ("count", "bytes", "errors"):
                    assert row.get(key) == two[name].get(key), (name, key)
                assert row["virtual_s"] == pytest.approx(
                    two[name]["virtual_s"], rel=1e-12
                )


class TestCompareBench:
    def test_clean_runs_pass_the_gate(self, tmp_path):
        baseline, current = tmp_path / "base.jsonl", tmp_path / "cur.jsonl"
        run_bench(baseline)
        run_bench(current)
        assert compare_bench.main([str(baseline), str(current)]) == 0

    def test_deterministic_drift_fails_even_when_fast(self, tmp_path, capsys):
        baseline, current = tmp_path / "base.jsonl", tmp_path / "cur.jsonl"
        run_bench(baseline)
        clean = read_jsonl(str(baseline))
        # Looped, not parametrized: the test keeps its one name.
        for column, drift in (
            ("count", lambda value: value + 1),  # an extra disk access
            ("bytes", lambda value: value + 1),
            ("virtual_s", lambda value: value * (1 + 1e-6)),
            ("errors", lambda value: value + 1),  # a span started raising
        ):
            write_jsonl(str(current), [
                dict(row, **{column: drift(row[column])})
                if row.get("kind") == "phase" and row["name"] == "disk.read"
                else row
                for row in clean
            ])
            assert compare_bench.main([str(baseline), str(current)]) == 1
            assert f"disk.read: deterministic {column} changed" in (
                capsys.readouterr().out
            )

    def test_incomparable_metas_exit_2(self, tmp_path):
        baseline, current = tmp_path / "base.jsonl", tmp_path / "cur.jsonl"
        run_bench(baseline)
        argv = ["--queries", "20", "--seed", SEED, "--out", str(current)]
        assert bench_engine.main(argv) == 0
        assert compare_bench.main([str(baseline), str(current)]) == 2

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        ok = tmp_path / "ok.jsonl"
        run_bench(ok)
        assert compare_bench.main([str(bad), str(ok)]) == 2

    def test_missing_phase_is_a_regression(self, tmp_path, capsys):
        baseline, current = tmp_path / "base.jsonl", tmp_path / "cur.jsonl"
        run_bench(baseline)
        run_bench(current)
        rows = [row for row in read_jsonl(str(current))
                if not (row.get("kind") == "phase"
                        and row["name"] == "journal.seal")]
        with open(current, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        assert compare_bench.main([str(baseline), str(current)]) == 1
        # The regression message is a per-column diff of what the baseline
        # recorded for the vanished phase, not just a bare phase name.
        out = capsys.readouterr().out
        assert "journal.seal" in out
        assert "disappeared" in out
        for column in ("count=", "bytes=", "virtual_s="):
            assert column in out, column

    def test_phase_row_missing_column_exits_2(self, tmp_path, capsys):
        # A phase row that lost a column is malformed input: the gate must
        # exit 2 with a clear message, never crash with a KeyError.
        baseline, current = tmp_path / "base.jsonl", tmp_path / "cur.jsonl"
        run_bench(baseline)
        run_bench(current)
        rows = read_jsonl(str(current))
        for row in rows:
            if row.get("kind") == "phase" and row["name"] == "decrypt":
                del row["virtual_s"]
        with open(current, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        assert compare_bench.main([str(baseline), str(current)]) == 2
        err = capsys.readouterr().err
        assert "decrypt" in err
        assert "virtual_s" in err
        assert "malformed" in err

    def test_committed_baseline_is_loadable(self):
        baselines = sorted(glob.glob(
            path.join(_BENCHMARKS, "results", "perf_baseline*.jsonl")
        ))
        assert [path.basename(name) for name in baselines] == [
            "perf_baseline.jsonl", "perf_baseline_fusion.jsonl",
            "perf_baseline_net.jsonl", "perf_baseline_plan.jsonl",
            "perf_baseline_reshuffle.jsonl",
        ]
        for name in baselines:
            run = compare_bench.load_run(name)
            # The wall clock has one authority (BENCH); none of it here.
            for row in [run["meta"], *run["phases"].values()]:
                assert "wall_s" not in row and "calibration_s" not in row, name
        assert "request" in compare_bench.load_run(baselines[0])["phases"]


class TestMetricsCli:
    def test_metrics_command_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        code = cli.main([
            "metrics", "--queries", "20", "--pages", "32", "--cache", "4",
            "--page-size", "32", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "request" in stdout
        assert "ratio" in stdout
        # Every Eq. 8 conformance ratio prints as exactly 1.0 on a clean run.
        assert "engine.requests" in stdout

        rows = read_jsonl(str(out))
        kinds = {row["kind"] for row in rows}
        assert {"meta", "phase", "counter", "costcheck"} <= kinds
        checks = rows_by_kind(rows, "costcheck")
        assert {row["term"] for row in checks} == {
            "seek", "disk", "link", "crypto", "total"
        }
        for row in checks:
            assert row["ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_metrics_trace_flag_exports_spans(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        code = cli.main([
            "metrics", "--queries", "5", "--pages", "32", "--cache", "4",
            "--page-size", "32", "--seed", "5", "--trace",
            "--out", str(out),
        ])
        assert code == 0
        spans = rows_by_kind(read_jsonl(str(out)), "span")
        assert spans
        assert any(row["name"] == "request" for row in spans)
        roots = [row for row in spans if row["name"] == "request"]
        assert all(row["parent"] is None for row in roots)
