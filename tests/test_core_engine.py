"""The Figure-3 retrieval engine: correctness, trace shape, invariants."""

from __future__ import annotations

import pytest

from repro import PirDatabase
from repro.baselines import make_records
from repro.errors import PageNotFoundError
from repro.storage.trace import READ, WRITE, shapes_identical

from tests.helpers import make_db


class TestCorrectness:
    def test_every_page_retrievable(self, small_db, records):
        for page_id in range(len(records)):
            assert small_db.engine.retrieve(page_id).payload == records[page_id]

    def test_repeated_retrievals_survive_reshuffling(self, small_db, records):
        for round_index in range(8):
            for page_id in range(len(records)):
                page = small_db.engine.retrieve(page_id)
                assert page.payload == records[page_id], (round_index, page_id)
        small_db.consistency_check()

    def test_cache_hits_return_correct_data(self, small_db, records):
        # Hammer one page: after the first retrieval it is cached, so most
        # of these are hits; data must be right either way.
        for _ in range(30):
            assert small_db.engine.retrieve(5).payload == records[5]

    def test_out_of_range_id(self, small_db):
        with pytest.raises(PageNotFoundError):
            small_db.engine.retrieve(small_db.params.total_pages)

    def test_touch_keeps_database_consistent(self, small_db):
        for _ in range(25):
            small_db.engine.touch()
        small_db.consistency_check()


class TestObservableTrace:
    def test_four_accesses_per_request(self, small_db):
        small_db.engine.retrieve(0)
        events = small_db.trace.events_for_request(0)
        assert [e.op for e in events] == [READ, READ, WRITE, WRITE]

    def test_request_shape_constant_across_hits_and_misses(self, small_db):
        k = small_db.params.block_size
        for page_id in (0, 1, 1, 1, 2, 2, 0):  # mix of misses and hits
            small_db.engine.retrieve(page_id)
        assert shapes_identical(small_db.trace, 0)
        shape = small_db.trace.request_shape(0)
        assert shape == [(READ, k), (READ, 1), (WRITE, k), (WRITE, 1)]

    def test_round_robin_covers_every_block(self, small_db):
        params = small_db.params
        starts = []
        for _ in range(params.num_blocks):
            small_db.engine.touch()
            events = small_db.trace.events_for_request(
                small_db.engine.request_count - 1
            )
            starts.append(events[0].location)
        assert sorted(starts) == [
            i * params.block_size for i in range(params.num_blocks)
        ]

    def test_round_robin_wraps(self, small_db):
        params = small_db.params
        for _ in range(params.num_blocks + 1):
            small_db.engine.touch()
        first = small_db.trace.events_for_request(0)[0].location
        wrapped = small_db.trace.events_for_request(params.num_blocks)[0].location
        assert first == wrapped == 0

    def test_blocks_written_back_where_read(self, small_db):
        small_db.engine.retrieve(3)
        events = small_db.trace.events_for_request(0)
        block_read, extra_read, block_write, extra_write = events
        assert block_read.location == block_write.location
        assert block_read.count == block_write.count
        assert extra_read.location == extra_write.location

    def test_frames_change_on_write_back(self, small_db):
        """Re-encryption with fresh nonces makes every write-back unlinkable."""
        before = [small_db.disk.peek(loc) for loc in range(small_db.params.block_size)]
        small_db.engine.retrieve(0)  # first request touches block 0
        after = [small_db.disk.peek(loc) for loc in range(small_db.params.block_size)]
        assert all(a != b for a, b in zip(before, after))


class TestEngineState:
    def test_request_outcome_populated(self, small_db):
        small_db.engine.retrieve(4)
        outcome = small_db.engine.last_outcome
        assert outcome is not None
        assert outcome.request_index == 0
        assert outcome.block_start == 0
        assert 0 <= outcome.victim_slot < small_db.params.cache_capacity
        assert 0 <= outcome.block_slot < small_db.params.block_size

    def test_requested_page_lands_in_cache(self, small_db):
        pm = small_db.cop.state
        small_db.engine.retrieve(9)
        assert pm.is_cached(9)

    def test_cache_occupancy_constant(self, small_db):
        pm = small_db.cop.state
        m = small_db.params.cache_capacity
        assert pm.cached_count == m
        for page_id in range(20):
            small_db.engine.retrieve(page_id % small_db.num_pages)
            assert pm.cached_count == m

    def test_extra_page_never_cached_or_in_block(self, small_db):
        """The rejection sampling of lines 3-5 must never pick an excluded page."""
        pm = small_db.cop.state
        k = small_db.params.block_size
        for step in range(40):
            target = step % small_db.num_pages
            # Pre-state: remember what is cached.
            cached_before = {
                pid for pid in range(small_db.params.total_pages)
                if pm.is_cached(pid)
            }
            small_db.engine.retrieve(target)
            outcome = small_db.engine.last_outcome
            extra_loc = outcome.extra_location
            in_block = outcome.block_start <= extra_loc < outcome.block_start + k
            if outcome.cache_hit:
                assert target in cached_before
            assert not in_block, "extra page must come from outside the block"

    def test_eviction_moves_exactly_one_page_to_disk(self, small_db):
        pm = small_db.cop.state
        cached_before = {
            pid for pid in range(small_db.params.total_pages) if pm.is_cached(pid)
        }
        small_db.engine.retrieve(2)
        cached_after = {
            pid for pid in range(small_db.params.total_pages) if pm.is_cached(pid)
        }
        entered = cached_after - cached_before
        left = cached_before - cached_after
        assert len(entered) <= 1 and len(left) <= 1
        # The requested page (a miss here) must be among the cached now.
        assert 2 in cached_after


class TestConfigurationGuards:
    def test_mismatched_disk(self, small_db):
        from repro.core.engine import RetrievalEngine
        from repro.errors import ConfigurationError
        from repro.storage.disk import DiskStore

        wrong_disk = DiskStore(small_db.params.num_locations + 8,
                               small_db.cop.frame_size)
        with pytest.raises(ConfigurationError):
            RetrievalEngine(small_db.params, small_db.cop, wrong_disk)

    def test_block_size_one_works(self):
        db = make_db(num_records=20, cache_capacity=4, page_capacity=16,
                     block_size=1, target_c=2.0, seed=5)
        recs = make_records(20, 16)
        for i in range(20):
            assert db.query(i) == recs[i]
        db.consistency_check()

    def test_large_block_works(self):
        db = make_db(num_records=30, cache_capacity=4, page_capacity=16,
                     block_size=15, seed=6)
        recs = make_records(30, 16)
        for i in range(30):
            assert db.query(i) == recs[i]
        db.consistency_check()
