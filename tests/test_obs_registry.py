"""MetricsRegistry instruments, per-instance views, labelled series, export."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analysis.stats import LatencySeries
from repro.baselines import make_records
from repro.cluster import build_cluster
from repro.core.sharded import ShardedPirDatabase
from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    Tracer,
    read_jsonl,
    registry_or_private,
    rows_by_kind,
    run_rows,
    write_jsonl,
)


class TestInstruments:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.requests")
        counter.inc()
        counter.inc(4)
        assert registry.counter("engine.requests") is counter
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("x").inc(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("health.state")
        gauge.set(2)
        gauge.add(-1.5)
        assert gauge.value == pytest.approx(0.5)

    def test_histogram_summary_and_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(6.05)
        assert summary["mean"] == pytest.approx(6.05 / 4)
        assert summary["min"] == pytest.approx(0.05)
        assert summary["max"] == pytest.approx(5.0)
        assert summary["p50"] == pytest.approx(0.55)  # interpolated in (0.1, 1]
        assert hist.nonzero_buckets() == [("0.1", 1), ("1", 2), ("10", 1)]

    def test_quantile_interpolation_vs_legacy_upper_bound(self):
        # Regression pin for the estimator.  Values 0.05, 0.5, 0.5, 5.0
        # on buckets [0.1, 1, 10]: the median rank (2) lands in (0.1, 1]
        # as rank 1 of 2 -> lerp 0.1 + 0.5 * (1 - 0.1) = 0.55, not the
        # bucket's upper bound, 1.0.
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.quantile(0.5) == pytest.approx(0.55)
        # Interpolation clamps to the observed extremes: the last bucket
        # lerps toward 10.0 but no sample exceeds 5.0.
        assert hist.quantile(1.0) == pytest.approx(5.0)
        # And a single-sample bucket clamps up to the observed minimum.
        low = registry.histogram("low", buckets=[10.0])
        low.observe(9.0)
        low.observe(9.5)
        assert low.quantile(0.25) == pytest.approx(9.0)

    def test_histogram_state_is_frozen_copy(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t", buckets=[1.0, 2.0])
        hist.observe(0.5)
        state = hist.state()
        hist.observe(1.5)
        assert state.count == 1
        assert state.counts == [1, 0, 0]
        assert hist.state().count == 2
        # Windowed statistics: subtracting two states' counts isolates
        # the samples observed between them.
        delta = [b - a for a, b in zip(state.counts, hist.state().counts)]
        assert delta == [0, 1, 0]

    def test_histogram_overflow_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t", buckets=[1.0])
        hist.observe(50.0)
        assert hist.nonzero_buckets() == [("+Inf", 1)]
        # Overflow has no upper bound to interpolate toward: the estimate
        # is the observed maximum.
        assert hist.quantile(1.0) == pytest.approx(50.0)

    def test_histogram_invalid_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=[2.0, 1.0])
        # An empty sequence means "use the defaults", not an error.
        hist = registry.histogram("empty", buckets=[])
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS

    def test_default_buckets_strictly_increasing(self):
        assert all(
            b2 > b1 for b1, b2 in
            zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        )

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ConfigurationError):
            registry.gauge("name")
        with pytest.raises(ConfigurationError):
            registry.histogram("name")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7.0)
        registry.histogram("h").observe(0.01)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_thread_safety_exact_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("hot")
        hist = registry.histogram("hot.h", buckets=[0.5])

        def hammer():
            for _ in range(10_000):
                counter.inc()
                hist.observe(0.1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000
        assert hist.count == 80_000
        assert hist.sum == pytest.approx(8_000.0)

    def test_snapshot_consistent_under_concurrent_writers(self):
        # snapshot() copies primitive state under the lock and serializes
        # outside it; hammer it from a reader thread while writers mutate
        # every instrument kind and check each snapshot is internally
        # consistent (histogram count == sum of its bucket counts) and
        # monotone across reads.
        registry = MetricsRegistry()
        counter = registry.counter("w.c")
        gauge = registry.gauge("w.g")
        hist = registry.histogram("w.h", buckets=[0.5, 1.0])
        stop = threading.Event()

        def write():
            while not stop.is_set():
                counter.inc()
                gauge.add(1.0)
                hist.observe(0.25)
                hist.observe(0.75)

        writers = [threading.Thread(target=write) for _ in range(4)]
        for thread in writers:
            thread.start()
        try:
            last_count = 0
            for _ in range(200):
                snap = registry.snapshot()
                summary = snap["histograms"]["w.h"]
                bucketed = sum(n for _, n in summary["buckets"])
                assert summary["count"] == bucketed
                assert summary["count"] >= last_count
                last_count = summary["count"]
        finally:
            stop.set()
            for thread in writers:
                thread.join()
        assert registry.snapshot()["counters"]["w.c"] == counter.value

    def test_reentrant_update_from_snapshot_postprocessing(self):
        # The registry lock is re-entrant: updating an instrument while
        # holding it (as snapshot post-processing callbacks may) is fine.
        registry = MetricsRegistry()
        with registry._lock:
            registry.counter("nested").inc()
            assert registry.snapshot()["counters"]["nested"] == 1


class TestAbsorption:
    def test_latency_extend_is_atomic(self):
        # Regression: a mid-batch negative latency used to leave the
        # leading valid samples appended before raising.
        series = LatencySeries()
        series.record(0.1)
        with pytest.raises(ConfigurationError):
            series.extend([0.2, -0.5, 0.3])
        assert series.samples == [0.1]


class TestCounterView:
    def test_increment_and_get(self):
        counters = MetricsRegistry().counter_view()
        counters.increment("x")
        counters.increment("x", 4)
        assert counters.get("x") == counters["x"] == 5
        assert counters.get("missing") == 0

    def test_as_dict(self):
        counters = MetricsRegistry().counter_view()
        assert counters.as_dict() == {}
        counters.increment("a", 2)
        assert counters.as_dict() == {"a": 2}

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter_view().increment("x", -1)

    def test_concurrent_increments_are_not_lost(self):
        """8 threads x 10 000 increments read exactly 80 000, five trials
        (an unlocked read-modify-write loses some under a short switch
        interval)."""
        threads, per_thread = 8, 10_000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                counters = MetricsRegistry().counter_view()

                def bump():
                    for _ in range(per_thread):
                        counters.increment("x")

                workers = [threading.Thread(target=bump)
                           for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                assert counters.get("x") == threads * per_thread
        finally:
            sys.setswitchinterval(interval)

    def test_view_reads_own_count_registry_reads_total(self):
        # Two instances share a registry and a name (the server and its
        # admission controller both count net.shed): each view reads its
        # own count, the registry the sum.
        registry = MetricsRegistry()
        server = registry.counter_view("net.")
        admission = registry.counter_view("net.")
        server.increment("shed", 3)
        admission.increment("shed")
        registry.counter("net.shed").inc(10)
        assert server.get("shed") == 3
        assert admission.get("shed") == 1
        assert registry.counter("net.shed").value == 14
        assert registry.snapshot()["counters"] == {"net.shed": 14}

    def test_none_means_a_private_registry(self):
        mine = MetricsRegistry()
        assert registry_or_private(mine) is mine
        first, second = registry_or_private(None), registry_or_private(None)
        assert first is not second


class TestLabels:
    def test_labelled_series_sum_to_the_flat_total(self):
        registry = MetricsRegistry()
        registry.labelled(member=0).counter_view("engine.").increment(
            "requests", 2)
        registry.labelled(member=1).counter_view("engine.").increment(
            "requests", 5)
        snap = registry.snapshot()
        assert snap["counters"] == {"engine.requests": 7}
        assert snap["labelled"] == [
            {"kind": "counter", "name": "engine.requests",
             "labels": {"member": 0}, "value": 2},
            {"kind": "counter", "name": "engine.requests",
             "labels": {"member": 1}, "value": 5},
        ]
        assert registry.counter("engine.requests").value == 7
        assert registry.labelled(member=1).counter("engine.requests").value == 5

    def test_labelled_reads_see_only_their_series(self):
        registry = MetricsRegistry()
        member = registry.labelled(member=0)
        member.labelled(shard=1).counter("c").inc(3)
        registry.labelled(member=1).counter("c").inc(4)
        assert member.counter("c").value == 3
        assert member.snapshot()["counters"] == {"c": 3}
        assert member.labelled(member=1).counter("c").value == 4  # overrides

    def test_gauges_are_per_label_set(self):
        registry = MetricsRegistry()
        registry.labelled(member=0).gauge("health.state").set(0)
        registry.labelled(member=1).gauge("health.state").set(1)
        registry.labelled(member=0).gauge("health.state").set(0)
        assert registry.labelled(member=1).gauge("health.state").value == 1.0
        labelled = {row["labels"]["member"]: row["value"]
                    for row in registry.snapshot()["labelled"]}
        assert labelled == {0: 0.0, 1: 1.0}

    def test_histograms_merge_across_series(self):
        registry = MetricsRegistry()
        registry.labelled(shard=0).histogram("h", buckets=[1.0]).observe(0.5)
        registry.labelled(shard=1).histogram("h").observe(2.0)
        merged = registry.histogram("h").state()
        assert merged.counts == [1, 1]
        assert (merged.count, merged.min, merged.max) == (2, 0.5, 2.0)
        rows = registry.snapshot()["labelled"]
        assert [(row["labels"], row["count"]) for row in rows] == [
            ({"shard": 0}, 1.0), ({"shard": 1}, 1.0)]

    def test_kind_collision_across_labels_raises(self):
        registry = MetricsRegistry()
        registry.labelled(member=0).counter("name")
        with pytest.raises(ConfigurationError):
            registry.labelled(member=1).gauge("name")


RECORDS = make_records(32, 16)


def labelled_values(registry, name):
    return {tuple(sorted(row["labels"].items())): row["value"]
            for row in registry.snapshot()["labelled"]
            if row["name"] == name}


class TestWiringLabels:
    """The wiring sites fix the labels: one snapshot answers per member
    and per shard, and the labelled series sum to the flat total."""

    def test_cluster_members_count_engine_and_tier_per_member(self, tmp_path):
        registry = MetricsRegistry()
        handles = build_cluster(RECORDS, 2, str(tmp_path), metrics=registry,
                                page_capacity=16, target_c=2.0,
                                hot_tier_frames=4)
        for page_id in range(3):
            handles[0].db.query(page_id)
        handles[1].db.query(0)
        requests = labelled_values(registry, "engine.requests")
        assert requests == {(("member", 0),): 3, (("member", 1),): 1}
        assert (sum(requests.values())
                == registry.snapshot()["counters"]["engine.requests"])
        assert labelled_values(registry, "tier.miss").keys() == {
            (("member", 0),), (("member", 1),)}

    def test_cluster_gauges_are_per_member(self, tmp_path):
        registry = MetricsRegistry()
        handles = build_cluster(RECORDS, 2, str(tmp_path), metrics=registry,
                                page_capacity=16, target_c=2.0)
        for _ in range(3):
            handles[1].frontend.health.record_fault()
        handles[0].frontend.health.record_success()
        assert handles[1].frontend.health.state == "degraded"
        state = labelled_values(registry, "health.state")
        assert state == {(("member", 0),): 0.0, (("member", 1),): 1.0}
        assert registry.labelled(member=1).gauge("health.state").value == 1.0

    def test_shards_count_engine_requests_per_shard(self):
        registry = MetricsRegistry()
        with ShardedPirDatabase.create(RECORDS, num_shards=4,
                                       cache_capacity_per_shard=4,
                                       page_capacity=16, seed=3,
                                       metrics=registry) as sharded:
            for page_id in (0, 9, 17, 30, 31):
                sharded.query(page_id)
        requests = labelled_values(registry, "engine.requests")
        # Cover traffic: every shard serves one request per query.
        assert requests == {(("shard", index),): 5 for index in range(4)}
        assert (sum(requests.values())
                == registry.snapshot()["counters"]["engine.requests"])
        assert sharded.counters.get("batch.requests") == 5


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("request", nbytes=64):
            with tracer.span("decrypt", nbytes=32):
                pass
        registry = MetricsRegistry()
        registry.counter("engine.requests").inc()
        rows = run_rows(tracer, registry, meta={"queries": 1}, spans=True)
        out = tmp_path / "run.jsonl"
        written = write_jsonl(str(out), rows)
        back = read_jsonl(str(out))
        assert written == len(back) == len(rows)

        metas = rows_by_kind(back, "meta")
        assert metas[0]["queries"] == 1
        phases = {row["name"] for row in rows_by_kind(back, "phase")}
        assert phases == {"request", "decrypt"}
        spans = rows_by_kind(back, "span")
        assert len(spans) == 2
        counters = rows_by_kind(back, "counter")
        assert {"name": "engine.requests", "kind": "counter", "value": 1} in \
            [dict(c) for c in counters]

    def test_labelled_rows_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("engine.requests").inc(1)
        registry.labelled(member=0).counter("engine.requests").inc(2)
        registry.labelled(member=1).gauge("health.state").set(1)
        out = tmp_path / "run.jsonl"
        write_jsonl(str(out), run_rows(registry=registry))
        back = read_jsonl(str(out))
        assert back == list(registry.rows())
        assert back == [
            {"kind": "counter", "name": "engine.requests", "value": 3},
            {"kind": "gauge", "name": "health.state", "value": 1.0},
            {"kind": "counter", "name": "engine.requests",
             "labels": {"member": 0}, "value": 2},
            {"kind": "gauge", "name": "health.state",
             "labels": {"member": 1}, "value": 1.0},
        ]

    def test_read_jsonl_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "meta"}\nnot json at all\n')
        with pytest.raises(ConfigurationError):
            read_jsonl(str(bad))
