"""MetricsRegistry instruments, CounterSet/LatencySeries mirroring, export."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    Tracer,
    global_registry,
    read_jsonl,
    rows_by_kind,
    run_rows,
    set_global_registry,
    write_jsonl,
)
from repro.sim.metrics import CounterSet, LatencySeries


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
    def test_absorb_counters(self):
        registry = MetricsRegistry()
        registry.absorb_counters({"a": 2, "b": 3}, prefix="legacy.")
        assert registry.counter("legacy.a").value == 2
        assert registry.counter("legacy.b").value == 3

    def test_absorb_tracer_idempotent(self):
        tracer = Tracer()
        with tracer.span("decrypt", nbytes=100):
            pass
        registry = MetricsRegistry()
        registry.absorb_tracer(tracer)
        registry.absorb_tracer(tracer)  # re-absorbing must not double-count
        assert registry.counter("phase.decrypt.count").value == 1
        assert registry.counter("phase.decrypt.bytes").value == 100
        assert registry.counter("phase.decrypt.errors").value == 0
        assert registry.gauge("phase.decrypt.wall_s").value >= 0.0

    def test_counterset_mirrors_into_registry(self):
        registry = MetricsRegistry()
        counters = CounterSet(registry=registry, prefix="engine.")
        counters.increment("requests", 3)
        assert counters.get("requests") == 3
        assert registry.counter("engine.requests").value == 3

    def test_counterset_bind_folds_existing(self):
        counters = CounterSet()
        counters.increment("early", 4)
        registry = MetricsRegistry()
        counters.bind_registry(registry, prefix="late.")
        assert registry.counter("late.early").value == 4
        counters.increment("early")
        assert registry.counter("late.early").value == 5

    def test_counterset_reset_is_local_only(self):
        registry = MetricsRegistry()
        counters = CounterSet(registry=registry)
        counters.increment("n", 2)
        counters.reset()
        assert counters.get("n") == 0
        # Registry counters are monotonic by contract and keep their value.
        assert registry.counter("n").value == 2

    def test_latency_series_mirrors_into_histogram(self):
        registry = MetricsRegistry()
        series = LatencySeries(histogram=registry.histogram("q"))
        series.record(0.2)
        series.extend([0.3, 0.4])
        assert len(series) == 3
        assert registry.histogram("q").count == 3

    def test_latency_extend_is_atomic(self):
        # Regression: a mid-batch negative latency used to leave the
        # leading valid samples appended (and mirrored) before raising.
        registry = MetricsRegistry()
        series = LatencySeries(histogram=registry.histogram("q"))
        series.record(0.1)
        with pytest.raises(ConfigurationError):
            series.extend([0.2, -0.5, 0.3])
        assert series.samples == [0.1]
        assert registry.histogram("q").count == 1


class TestGlobalRegistry:
    def test_global_registry_singleton_and_reset(self):
        set_global_registry(None)
        try:
            first = global_registry()
            assert global_registry() is first
            mine = MetricsRegistry()
            set_global_registry(mine)
            assert global_registry() is mine
        finally:
            set_global_registry(None)


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

    def test_read_jsonl_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "meta"}\nnot json at all\n')
        with pytest.raises(ConfigurationError):
            read_jsonl(str(bad))
