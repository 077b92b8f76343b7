"""Eq. 8 conformance: CostModelCheck against synthetic and live engines."""

from __future__ import annotations

import pytest

from repro.analysis.costmodel import AnalyticalCostModel, eq8_terms
from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.core.journal import MemoryJournal
from repro.errors import ConfigurationError
from repro.hardware.specs import IBM_4764
from repro.obs import CostModelCheck, Tracer
from repro.obs.costcheck import _ratio


class FakeClock:
    """Settable virtual-time source bindable via ``Tracer.bind_clock``."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds


def synthetic_trace(queries=1, extra_disk_reads=0):
    """Emit spans whose virtual costs exactly match Eq. 8 for k=1, F=100.

    Returns the tracer.  ``extra_disk_reads`` adds spurious seek+transfer
    spans, pushing the seek/disk/total ratios above 1 like a real retry
    storm would.
    """
    spec = IBM_4764
    k, frame = 1, 100
    clock = FakeClock()
    tracer = Tracer()
    tracer.bind_clock(clock)
    per_frame_disk = frame / spec.disk.read_bandwidth
    moved = 2 * (k + 1) * frame  # bytes through link and crypto per query
    for _ in range(queries):
        with tracer.span("request"):
            for index in range(2 + extra_disk_reads):
                with tracer.span("disk.read", nbytes=frame):
                    clock.advance(spec.disk.seek_time + per_frame_disk)
            with tracer.span("link.ingest", nbytes=(k + 1) * frame):
                clock.advance((k + 1) * frame / spec.link_bandwidth)
            with tracer.span("decrypt", nbytes=(k + 1) * frame):
                clock.advance((k + 1) * frame / spec.crypto_throughput)
            with tracer.span("reencrypt", nbytes=(k + 1) * frame):
                clock.advance((k + 1) * frame / spec.crypto_throughput)
            with tracer.span("link.egress", nbytes=(k + 1) * frame):
                clock.advance((k + 1) * frame / spec.link_bandwidth)
            for index in range(2):
                with tracer.span("disk.write", nbytes=frame):
                    clock.advance(spec.disk.seek_time + per_frame_disk)
    assert moved == 2 * (k + 1) * frame
    return tracer


class TestSyntheticTrace:
    def test_exact_trace_gives_unit_ratios(self):
        check = CostModelCheck(IBM_4764, block_size=1, frame_size=100)
        results = {r.term: r for r in check.evaluate(synthetic_trace(), 1)}
        assert set(results) == {"seek", "disk", "link", "crypto", "total"}
        for term, row in results.items():
            assert row.ratio == pytest.approx(1.0, rel=1e-9), term

    def test_multiple_queries_scale_predictions(self):
        check = CostModelCheck(IBM_4764, block_size=1, frame_size=100)
        tracer = synthetic_trace(queries=3)
        results = {r.term: r for r in check.evaluate(tracer, 3)}
        predicted = check.predicted_terms()
        for term, row in results.items():
            assert row.predicted_seconds == pytest.approx(3 * predicted[term])
            assert row.ratio == pytest.approx(1.0, rel=1e-9), term

    def test_extra_disk_traffic_inflates_ratios(self):
        check = CostModelCheck(IBM_4764, block_size=1, frame_size=100)
        tracer = synthetic_trace(extra_disk_reads=2)
        results = {r.term: r for r in check.evaluate(tracer, 1)}
        # 6 disk accesses instead of 4: seek ratio 1.5, disk ratio 1.5
        # (two extra frame transfers on top of the predicted four), and the
        # total absorbs both excesses; link/crypto untouched.
        assert results["seek"].ratio == pytest.approx(1.5, rel=1e-9)
        assert results["disk"].ratio == pytest.approx(1.5, rel=1e-9)
        assert results["link"].ratio == pytest.approx(1.0, rel=1e-9)
        assert results["crypto"].ratio == pytest.approx(1.0, rel=1e-9)
        assert results["total"].ratio > 1.0

    def test_as_dict_rows_are_costcheck_kind(self):
        check = CostModelCheck(IBM_4764, block_size=1, frame_size=100)
        rows = [r.as_dict() for r in check.evaluate(synthetic_trace(), 1)]
        assert all(row["kind"] == "costcheck" for row in rows)
        assert {row["term"] for row in rows} == {
            "seek", "disk", "link", "crypto", "total"
        }


class TestLiveEngine:
    def test_live_run_conforms_to_eq8(self):
        tracer = Tracer()
        db = PirDatabase.create(
            make_records(64, 32), cache_capacity=8, block_size=4,
            page_capacity=32, cipher_backend="shake", seed=21,
            spec=IBM_4764, journal=MemoryJournal(), tracer=tracer,
        )
        queries = 25
        for index in range(queries):
            db.query(index % 64)
        check = CostModelCheck.for_database(db)
        for row in check.evaluate(tracer, queries):
            assert row.ratio == pytest.approx(1.0, rel=1e-9), row.term

    def test_for_database_picks_frame_size(self):
        db = PirDatabase.create(
            make_records(32, 16), cache_capacity=4, block_size=4,
            page_capacity=16, seed=3,
        )
        check = CostModelCheck.for_database(db)
        assert check.frame_size == db.cop.frame_size
        assert check.block_size == db.params.block_size
        # Predictions use the frame size, not the raw page size.
        assert check.predicted_terms()["total"] == pytest.approx(
            AnalyticalCostModel(db.cop.spec).query_time(
                db.params.block_size, db.cop.frame_size
            )
        )


class TestValidationAndRatio:
    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            CostModelCheck(IBM_4764, block_size=0, frame_size=10)
        with pytest.raises(ConfigurationError):
            CostModelCheck(IBM_4764, block_size=1, frame_size=0)

    def test_evaluate_requires_positive_queries(self):
        check = CostModelCheck(IBM_4764, block_size=1, frame_size=10)
        with pytest.raises(ConfigurationError):
            check.evaluate(Tracer(), 0)

    def test_ratio_edge_cases(self):
        assert _ratio(0.0, 0.0) == 0.0
        assert _ratio(1.0, 0.0) == float("inf")
        assert _ratio(3.0, 2.0) == pytest.approx(1.5)

    def test_eq8_terms_validation_and_total(self):
        with pytest.raises(ConfigurationError):
            eq8_terms(IBM_4764, 0, 64)
        with pytest.raises(ConfigurationError):
            eq8_terms(IBM_4764, 4, 0)
        terms = eq8_terms(IBM_4764, 8, 64)
        assert terms["total"] == pytest.approx(
            terms["seek"] + terms["disk"] + terms["link"] + terms["crypto"]
        )
        assert terms["total"] == pytest.approx(
            AnalyticalCostModel(IBM_4764).query_time(8, 64)
        )
