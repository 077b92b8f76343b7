"""Eq. 8 conformance: ``CalibratedCostModel.check`` against live engines."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import cli
from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.core.journal import MemoryJournal
from repro.errors import ConfigurationError
from repro.faults import (
    FaultInjector,
    FaultyDiskStore,
    RetryPolicy,
    corrupt_reads,
)
from repro.hardware.specs import IBM_4764
from repro.obs import Tracer
from repro.plan import (
    PHASE_NAMES,
    CalibratedCostModel,
    PlanTarget,
    plan,
    verify_plan,
)
from repro.plan.model import OTHER_PHASE
from repro.storage.disk import DiskStore

_QUERIES = 25


def corrupt_one_read(num_locations, frame_size, timing, clock, trace):
    """A ``disk_factory`` whose first read returns a corrupted frame."""
    return FaultyDiskStore(
        DiskStore(num_locations, frame_size, timing, clock, trace),
        FaultInjector(2, [corrupt_reads(times=1)]),
    )


def traced_run(**options):
    """25 queries on a shake-cipher, journaled k = 4 database.

    Returns the rows of ``from_spec(...).check`` keyed by phase, in order.
    """
    tracer = Tracer()
    db = PirDatabase.create(
        make_records(64, 32), cache_capacity=8, block_size=4,
        page_capacity=32, cipher_backend="shake", seed=21,
        spec=IBM_4764, journal=MemoryJournal(), tracer=tracer, **options,
    )
    for index in range(_QUERIES):
        db.query(index % 64)
    model = CalibratedCostModel.from_spec(db.cop.spec, page_size=32)
    rows = model.check(tracer, _QUERIES, db.params.block_size)
    return {row["phase"]: row for row in rows}


class TestCheck:
    def test_live_run_is_exact(self):
        rows = traced_run()
        assert list(rows) == list(PHASE_NAMES) + [OTHER_PHASE, "total"]
        for phase, row in rows.items():
            assert row["error"] <= 1e-9, (phase, row)
        assert rows["total"]["predicted_s"] == pytest.approx(
            CalibratedCostModel.from_spec(IBM_4764, 32).query_time(4)
        )

    def test_retried_read_shows_as_extra_traffic(self):
        rows = traced_run(
            disk_factory=corrupt_one_read, read_retry=RetryPolicy()
        )
        # One re-read of k + 1 frames in 25 queries: 1/26 more disk reads
        # and ingest, none of it on the write-back half.
        for phase in ("disk.read", "link.ingest", "total"):
            assert rows[phase]["error"] > 0.01, rows[phase]
        for phase in ("disk.write", "link.egress"):
            assert rows[phase]["error"] <= 1e-9, rows[phase]
        # The retry's backoff is charged to the virtual clock inside the
        # request, where no phase predicts it: a whole unpredicted share,
        # not float residue.
        assert rows[OTHER_PHASE]["predicted_s"] == 0.0
        assert rows[OTHER_PHASE]["measured_s"] > 1e-4
        assert rows[OTHER_PHASE]["error"] == 1.0

    def test_rejects_bad_sizes(self):
        model = CalibratedCostModel.from_spec(IBM_4764, page_size=32)
        with pytest.raises(ConfigurationError):
            model.check(Tracer(), 1, 0)
        with pytest.raises(ConfigurationError):
            CalibratedCostModel.from_spec(IBM_4764, page_size=0)

    def test_rejects_bad_queries_and_clock(self):
        model = CalibratedCostModel.from_spec(IBM_4764, page_size=32)
        with pytest.raises(ConfigurationError):
            model.check(Tracer(), 0, 4)
        with pytest.raises(ConfigurationError):
            model.check(Tracer(), 1, 4, clock="cpu")


class TestVerifyPlan:
    def test_predictions_come_from_the_model(self):
        target = PlanTarget(
            num_pages=256, page_size=64, p99_seconds=0.05, qps=5.0,
            privacy_c=3.0,
        )
        built = plan(target)
        slow_link = replace(IBM_4764, link_bandwidth=8e6)
        slower = CalibratedCostModel.from_spec(slow_link, page_size=64)
        rows = verify_plan(built, slower, queries=4)
        predicted = slower.predict(built.block_size)
        for row in rows:
            assert row["predicted_s"] == predicted[row["phase"]]
            if row["phase"].startswith("link."):
                assert row["error"] > 0.15, row

    def test_float_residue_on_other_passes_verify(self, capsys):
        code = cli.main([
            "plan", "--pages", "2000", "--page-size", "1000", "--p99",
            "0.05", "--qps", "1", "--verify", "--queries", "16", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        other = {row["phase"]: row for row in payload["verify"]}[OTHER_PHASE]
        # The residue of request minus the leaf sums, a few ulps of the
        # ~20 ms total: not an unpredicted cost.
        assert 0.0 < other["measured_s"] < 1e-15
        assert other["error"] == 0.0
        assert code == 0
