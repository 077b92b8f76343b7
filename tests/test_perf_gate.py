"""The exact per-phase gate and the metrics CLI.

Eq. 8 makes the cost of a request a constant, so the ``count`` / ``bytes`` /
``virtual_s`` / ``errors`` of every phase of a pinned-seed run are exact
numbers.  ``EXPECTED`` holds them for the five deterministic bench lanes
(``benchmarks/bench_{engine,fusion,net,plan,reshuffle}.py``); each lane's
own ``run_*`` functions run at their pinned size and seed and must
reproduce them — equal, ``virtual_s`` to a relative 1e-9.  A mismatch means
the engine's access pattern or a record length changed: a
correctness-class finding, never noise.  When it is intended, change the
literal here and state the delta in CHANGES.md.  Wall time is not compared
anywhere in this file: the repo's one wall-clock authority is BENCH
(``python3 benchmarks/e2e/run.py``).  Also exercises ``python -m repro
metrics`` end to end.
"""

from __future__ import annotations

import sys
import warnings
from os import path

import pytest

from repro import cli
from repro.obs import read_jsonl, rows_by_kind
from repro.plan import PHASE_NAMES

_BENCHMARKS = path.join(path.dirname(__file__), "..", "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

import bench_engine  # noqa: E402
import bench_fusion  # noqa: E402
import bench_net  # noqa: E402
import bench_plan  # noqa: E402
import bench_reshuffle  # noqa: E402

COLUMNS = ("count", "bytes", "virtual_s", "errors")

#: lane -> phase -> its COLUMNS (``errors`` where the lane measures it: the
#: engine lane's rows are traced spans).
EXPECTED = {
    "engine": {
        "cache.op": (120, 0, 0.0, 0),
        "decrypt": (120, 113400, 0.0, 0),
        "disk.read": (240, 113400, 1.2011339999999948, 0),
        "disk.write": (240, 113400, 1.2011339999999953, 0),
        "evict": (120, 0, 0.0, 0),
        "journal.seal": (120, 0, 0.0, 0),
        "link.egress": (120, 113400, 0.012757499999998898, 0),
        "link.ingest": (120, 113400, 0.012757499999998898, 0),
        "pagemap.lookup": (120, 0, 0.0, 0),
        "reencrypt": (120, 113400, 0.0, 0),
        "request": (120, 0, 2.4277829999999883, 0),
        "write_back": (120, 113400, 1.2011339999999953, 0),
    },
    "fusion": {
        "batch.serial": (64, 42048, 1.9308847999999887),
        "batch.fused": (64, 9344, 0.8025004800000018),
    },
    "net": {
        "net.serial": (64, 4096, 1.2997568000000015),
        "net.concurrent": (64, 4096, 0.0),
        "net.shed": (24, 0, 0.0),
    },
    "plan": {
        "plan.verify.spec": (32, 4672, 0.6411446400000003),
        "plan.verify.probe": (32, 4672, 0.6411446400000003),
    },
    "reshuffle": {
        "serve.baseline": (128, 84096, 2.5809370495999793),
        "reshuffle.epoch": (1152, 161184, 11.763810038401429),
        "serve.interleaved": (72, 47304, 13.21558712879586),
    },
}


def _engine():
    tracer, _db = bench_engine.run_phase_bench(bench_engine.QUERIES,
                                               bench_engine.DEFAULT_SEED)
    return {name: (total.count, total.nbytes, total.virtual_seconds,
                   total.errors)
            for name, total in tracer.phase_totals().items()}


def _fusion():
    rows = {}
    for name, run in (("batch.serial", bench_fusion.run_serial),
                      ("batch.fused", bench_fusion.run_fused)):
        payloads, virtual, _wall, db = run(bench_fusion.ROUNDS,
                                           bench_fusion.DEFAULT_SEED)
        read_bytes = sum(bench_fusion.read_frames(db)) * db.cop.frame_size
        rows[name] = (len(payloads), read_bytes, virtual)
    return rows


def _net():
    queries, seed = bench_net.QUERIES, bench_net.DEFAULT_SEED
    serial = bench_net.run_serial(queries, seed)[:3]
    concurrent = bench_net.run_concurrent(queries, seed)[:2]
    attempts = bench_net.run_shed(seed)[0]
    # Concurrent arrival order and the shed split depend on the scheduler:
    # those cells are not measured and hold the 0 the committed rows hold.
    return {"net.serial": serial, "net.concurrent": (*concurrent, 0.0),
            "net.shed": (attempts, 0, 0.0)}


def _cells(row):
    return tuple(row[column] for column in COLUMNS[:3])


def _plan():
    rows = (bench_plan.run_verify_gate(calibrate, bench_plan.VERIFY_QUERIES,
                                       bench_plan.DEFAULT_SEED)[0]
            for calibrate in ("spec", "probe"))
    return {row["name"]: _cells(row) for row in rows}


def _reshuffle():
    phases, _metrics, _n = bench_reshuffle.run_phases(
        bench_reshuffle.QUERIES, bench_reshuffle.DEFAULT_SEED)
    return {row["name"]: _cells(row) for row, _wall, _problems in phases}


LANES = {"engine": _engine, "fusion": _fusion, "net": _net, "plan": _plan,
         "reshuffle": _reshuffle}


def run_lanes():
    return {lane: run() for lane, run in LANES.items()}


def check_rows(expected, measured):
    """Diff one lane's phase rows; returns (failures, new phase names).

    A phase the run no longer emits fails (losing a span usually means an
    instrumentation or code-path break); one it newly emits is reported.
    """
    failures = []
    for phase, want in expected.items():
        got = measured.get(phase)
        if got is None:
            lost = ", ".join(f"{column}={value!r} -> absent"
                             for column, value in zip(COLUMNS, want))
            failures.append(f"{phase}: phase disappeared from the run ({lost})")
            continue
        for column, before, after in zip(COLUMNS, want, got):
            if column == "virtual_s":
                same = after == pytest.approx(before, rel=1e-9, abs=1e-9)
            else:
                same = after == before
            if not same:
                failures.append(f"{phase}: deterministic {column} changed "
                                f"{before!r} -> {after!r}")
    return failures, sorted(set(measured) - set(expected))


@pytest.fixture(scope="module")
def first_run():
    return run_lanes()


class TestBenchEngineScript:
    def test_deterministic_across_runs(self, first_run):
        second = run_lanes()
        for lane, rows in first_run.items():
            assert check_rows(rows, second[lane]) == ([], []), lane


class TestCompareBench:
    def test_committed_rows_hold(self, first_run):
        assert set(first_run) == set(EXPECTED)
        problems = []
        for lane, rows in first_run.items():
            failures, new = check_rows(EXPECTED[lane], rows)
            problems.extend(f"{lane}: {failure}" for failure in failures)
            if new:
                warnings.warn(f"{lane}: phases not in EXPECTED: {new}")
        assert not problems, "\n".join(problems)

    def test_deterministic_drift_fails_even_when_fast(self, first_run):
        clean = EXPECTED["engine"]["disk.read"]
        # Looped, not parametrized: the test keeps its one name.
        for index, value in enumerate((
            clean[0] + 1,  # count: an extra disk access
            clean[1] + 1,  # bytes
            clean[2] * (1 + 1e-6),  # virtual_s
            clean[3] + 1,  # errors: a span started raising
        )):
            drifted = clean[:index] + (value,) + clean[index + 1:]
            failures, _new = check_rows(
                dict(EXPECTED["engine"], **{"disk.read": drifted}),
                first_run["engine"],
            )
            assert len(failures) == 1
            assert (f"disk.read: deterministic {COLUMNS[index]} changed"
                    in failures[0])

    def test_missing_phase_is_a_regression(self, first_run):
        run = dict(first_run["engine"])
        del run["journal.seal"]
        run["brand.new"] = (1, 0, 0.0, 0)
        failures, new = check_rows(EXPECTED["engine"], run)
        # A per-column account of what the vanished phase held, not just a
        # bare phase name; the phase the table does not know is not a failure.
        assert len(failures) == 1
        assert "journal.seal" in failures[0]
        assert "disappeared" in failures[0]
        for column in ("count=", "bytes=", "virtual_s=", "errors="):
            assert column in failures[0], column
        assert new == ["brand.new"]


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
        assert "error" in stdout
        # Every Eq. 8 check row prints 0.00% error on a clean run.
        assert "engine.requests" in stdout

        rows = read_jsonl(str(out))
        kinds = {row["kind"] for row in rows}
        assert {"meta", "phase", "counter", "costcheck"} <= kinds
        checks = rows_by_kind(rows, "costcheck")
        assert [row["phase"] for row in checks] == (
            list(PHASE_NAMES) + ["other", "total"]
        )
        for row in checks:
            assert row["error"] <= 1e-9, row

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
