"""Hot/cold tiered storage: write-through, LRU, trace shape."""

from __future__ import annotations

import os
from collections import Counter, OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.helpers import make_db, rows
from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import VirtualClock
from repro.storage.disk import DiskStore
from repro.storage.filedisk import FileDiskStore
from repro.storage.tiered import MEMORY_TIER_TIMING, TieredDiskStore
from repro.storage.timing import DiskTimingModel
from repro.storage.trace import AccessTrace


def same_shape(a, b):
    """Byte-identical adversary view: op, location, count, event for event."""
    return [(e.op, e.location, e.count) for e in a] == \
        [(e.op, e.location, e.count) for e in b]

FRAME = 64
SLOW = DiskTimingModel(seek_time=0.004, read_bandwidth=100e6,
                       write_bandwidth=80e6)


def make_cold(n=16, trace=None, clock=None):
    return DiskStore(
        num_locations=n, frame_size=FRAME, timing=SLOW,
        clock=clock or VirtualClock(),
        trace=trace if trace is not None else AccessTrace(),
    )


def frame_of(byte):
    return bytes([byte]) * FRAME


class TestTieredBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            TieredDiskStore(make_cold(), hot_capacity=0)

    def test_write_through_cold_is_authoritative(self):
        tier = TieredDiskStore(make_cold(), hot_capacity=4)
        tier.write(3, frame_of(7))
        assert tier.cold.peek(3) == frame_of(7)
        assert tier.peek(3) == frame_of(7)
        assert tier.hot_frames == 1

    def test_read_miss_promotes_then_hits(self):
        tier = TieredDiskStore(make_cold(), hot_capacity=4)
        tier.cold.write(5, frame_of(9))  # behind the tier's back
        tier.drop_hot()
        assert tier.read(5) == frame_of(9)
        assert tier.counters.get("miss") == 1
        assert tier.read(5) == frame_of(9)
        assert tier.counters.get("hit") == 1
        assert tier.hit_rate() == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        tier = TieredDiskStore(make_cold(), hot_capacity=2)
        tier.write(0, frame_of(1))
        tier.write(1, frame_of(2))
        tier.read(0)  # 0 becomes most recent; 1 is now LRU
        tier.write(2, frame_of(3))
        assert tier.counters.get("evict") == 1
        assert tier.resident() == [0, 2]
        # The evicted frame is still served, from cold.
        assert tier.read(1) == frame_of(2)

    def test_partial_hot_range_goes_cold(self):
        tier = TieredDiskStore(make_cold(), hot_capacity=8)
        tier.write(0, frame_of(1))
        tier.cold.write(1, frame_of(2))
        tier.drop_hot(1)
        frames = tier.read_range(0, 2)
        assert rows(frames) == [frame_of(1), frame_of(2)]
        # One loc was missing: the whole range is charged as a cold miss.
        assert tier.counters.get("miss") == 2

    def test_a_new_tier_starts_cold(self):
        """A tier keeps no membership across instances: one opened over a
        cold store that another tier warmed serves its first read cold."""
        cold = make_cold()
        warm = TieredDiskStore(cold, hot_capacity=4)
        for loc in range(3):
            warm.write(loc, frame_of(loc + 1))
        assert warm.resident() == [0, 1, 2]
        fresh = TieredDiskStore(cold, hot_capacity=4)
        assert fresh.resident() == [] and fresh.hot_frame(0) is None
        assert fresh.read(0) == frame_of(1)
        assert (fresh.counters.get("miss"), fresh.counters.get("hit")) == (1, 0)
        assert fresh.read(0) == frame_of(1)
        assert fresh.counters.get("hit") == 1

    def test_metrics_registry_mirroring(self):
        metrics = MetricsRegistry()
        tier = TieredDiskStore(make_cold(), hot_capacity=2, metrics=metrics)
        tier.write(0, frame_of(1))
        tier.read(0)
        assert metrics.counter("tier.promote").value == 1
        assert metrics.counter("tier.hit").value == 1


class TestTraceAndTiming:
    def test_trace_shape_identical_with_and_without_tier(self):
        plain_trace, tier_trace = AccessTrace(), AccessTrace()
        plain = make_cold(trace=plain_trace)
        tier = TieredDiskStore(make_cold(trace=tier_trace), hot_capacity=4)
        for store in (plain, tier):
            store.write_range(0, [frame_of(1), frame_of(2)])
            store.read_range(0, 2)   # hot hit on the tier
            store.read(1)            # hot hit
            store.write_range(2, [frame_of(3), frame_of(4)])
            store.read_range(1, 3)   # spans hot and hot: still one event
            store.read(3)
        assert same_shape(plain_trace, tier_trace)

    def test_hot_hit_is_cheaper_on_the_virtual_clock(self):
        clock_cold, clock_hot = VirtualClock(), VirtualClock()
        cold_only = make_cold(clock=clock_cold)
        tier = TieredDiskStore(make_cold(clock=clock_hot), hot_capacity=4)
        cold_only.write(0, frame_of(1))
        tier.write(0, frame_of(1))
        t0_cold, t0_hot = clock_cold.now, clock_hot.now
        cold_only.read(0)
        tier.read(0)  # hot hit
        assert clock_hot.now - t0_hot < clock_cold.now - t0_cold
        # ... but virtual time still advances (memory is not free).
        assert clock_hot.now > t0_hot
        assert MEMORY_TIER_TIMING.seek_time == 0.0

    def test_a_hot_hit_charges_the_memory_tier_timing(self):
        clock = VirtualClock()
        tier = TieredDiskStore(make_cold(clock=clock), hot_capacity=4)
        tier.write_range(0, [frame_of(1), frame_of(2), frame_of(3)])
        before = clock.now
        tier.read_range(0, 3)
        assert tier.counters.get("hit") == 3
        assert clock.now - before == pytest.approx(
            MEMORY_TIER_TIMING.read_time(3 * FRAME)
        )


class ReferenceTier:
    """The per-frame ``OrderedDict`` LRU the arena store replaced.

    One ``_promote`` per frame and one ``bytes`` copy per frame — kept
    here as the model :class:`TieredDiskStore` is compared against.
    """

    def __init__(self, cold, capacity):
        self.cold, self.capacity = cold, capacity
        self.hot = OrderedDict()
        self.counts = Counter()

    def _promote(self, location, frame):
        frame = bytes(frame)
        if location in self.hot:
            self.hot[location] = frame
            self.hot.move_to_end(location)
            return
        self.hot[location] = frame
        self.counts["promote"] += 1
        while len(self.hot) > self.capacity:
            self.hot.popitem(last=False)
            self.counts["evict"] += 1

    def read_range(self, location, count):
        span = range(location, location + count)
        if all(loc in self.hot for loc in span):
            for loc in span:
                self.hot.move_to_end(loc)
            self.counts["hit"] += count
            return [self.hot[loc] for loc in span]
        frames = rows(self.cold.read_range(location, count))
        self.counts["miss"] += count
        for loc, frame in zip(span, frames):
            self._promote(loc, frame)
        return frames

    def write_range(self, location, frames):
        self.cold.write_range(location, frames)
        for offset, frame in enumerate(frames):
            self._promote(location + offset, frame)

    def poke(self, location, frame):
        self.cold.poke(location, frame)
        if location in self.hot:
            self.hot[location] = bytes(frame)


LOCATIONS = 24
_location = st.integers(0, LOCATIONS - 1)
_fill = st.integers(0, 255)
_range = st.tuples(_location, st.integers(1, 14)).map(
    lambda pair: (pair[0], min(pair[1], LOCATIONS - pair[0]))
)
tier_calls = st.lists(st.one_of(
    st.tuples(st.just("read"), _location),
    st.tuples(st.just("read_range"), _range),
    st.tuples(st.just("write"), _location, _fill),
    st.tuples(st.just("write_range"), _range, _fill),
    st.tuples(st.just("poke"), _location, _fill),
), max_size=30)


class TestAgainstPerFrameReference:
    """The range-at-a-time tier makes the per-frame LRU's decisions.

    Hypothesis drives both with the same calls — ranges wholly, partly and
    not resident, and longer than the capacity — and after every call the
    bytes handed back, the ``hit`` / ``miss`` counts, the resident set *in
    LRU order* and every hot copy are the same.  The store walks a range in order like the model
    does, so ``promote`` / ``evict`` are equal too — including the one
    place an implementation that batched a call's evictions would count
    differently: a frame resident when the call starts that the range's
    own earlier rows evict and its own turn re-admits (the second
    ``@example``; one promote and one evict in both).
    """

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 9), calls=tier_calls)
    @example(capacity=3, calls=[("write_range", (0, 14), 1),
                                ("read_range", (10, 4)), ("read", 13)])
    @example(capacity=3, calls=[("write", 5, 1), ("write_range", (0, 2), 2),
                                ("write_range", (3, 3), 3),
                                ("read_range", (3, 3))])
    def test_same_decisions_as_the_per_frame_loop(self, capacity, calls):
        colds = [make_cold(LOCATIONS), make_cold(LOCATIONS)]
        for cold in colds:
            cold.write_range(0, [frame_of(200)] * LOCATIONS)
        tier = TieredDiskStore(colds[0], capacity)
        model = ReferenceTier(colds[1], capacity)

        for call in calls:
            if call[0] == "read":
                assert tier.read(call[1]) == model.read_range(call[1], 1)[0]
            elif call[0] == "read_range":
                assert rows(tier.read_range(*call[1])) == \
                    model.read_range(*call[1])
            elif call[0] == "write":
                tier.write(call[1], frame_of(call[2]))
                model.write_range(call[1], [frame_of(call[2])])
            elif call[0] == "write_range":
                (location, count), fill = call[1:]
                frames = [frame_of((fill + i) % 256) for i in range(count)]
                tier.write_range(location, frames)
                model.write_range(location, frames)
            else:
                tier.poke(call[1], frame_of(call[2]))
                model.poke(call[1], frame_of(call[2]))
            assert tier.resident() == list(model.hot), call
            assert tier.hot_frames == len(model.hot)
            for location, frame in model.hot.items():
                assert tier.hot_frame(location) == frame, (call, location)
            for name in ("hit", "miss", "promote", "evict"):
                assert tier.counters.get(name) == model.counts[name], name
            stored = [[cold.peek(loc) for loc in range(LOCATIONS)]
                      for cold in colds]
            assert stored[0] == stored[1]

    def test_drop_hot_is_an_eviction(self):
        cold = make_cold()
        tier = TieredDiskStore(cold, hot_capacity=4)
        tier.write_range(0, [frame_of(i) for i in range(4)])
        tier.drop_hot(9)  # not resident: nothing happens
        tier.drop_hot(1)
        assert tier.resident() == [0, 2, 3]
        assert tier.hot_frame(1) is None and tier.counters.get("evict") == 1
        tier.write(7, frame_of(7))  # takes the freed row, evicts nobody
        assert tier.counters.get("evict") == 1
        tier = TieredDiskStore(cold, 4)
        tier.read_range(0, 4)
        tier.drop_hot()
        assert tier.resident() == [] and tier.counters.get("evict") == 4


class TestDatabaseIntegration:
    def test_database_with_hot_tier_serves_correctly(self):
        metrics = MetricsRegistry()
        db = make_db(hot_tier_frames=16, metrics=metrics, seed=3)
        baseline = make_db(seed=3)
        try:
            for i in range(30):
                assert db.query(i % db.num_pages) == \
                    baseline.query(i % baseline.num_pages)
            db.consistency_check()
            assert metrics.counter("tier.hit").value > 0
            # The trace is recorded by the cold store and byte-identical
            # to the untiered run's (placement never shapes the sequence).
            assert same_shape(db.trace, baseline.trace)
        finally:
            db.close()
            baseline.close()

    def test_a_file_backed_tier_leaves_only_the_page_file(self, tmp_path):
        """The tier writes nothing of its own next to the cold store's file."""
        def factory(num_locations, frame_size, timing, clock, trace):
            return FileDiskStore(
                str(tmp_path / "db.bin"), num_locations, frame_size,
                timing=timing, clock=clock, trace=trace,
            )

        db = PirDatabase.create(
            make_records(32, 16), cache_capacity=4, block_size=4,
            page_capacity=16, seed=3, disk_factory=factory,
            hot_tier_frames=8,
        )
        try:
            for i in range(12):
                db.query(i % db.num_pages)
            db.update(3, b"durable")
        finally:
            db.close()
        assert os.listdir(tmp_path) == ["db.bin"]

    def test_close_is_idempotent(self):
        db = make_db(hot_tier_frames=8)
        db.close()
        db.close()
