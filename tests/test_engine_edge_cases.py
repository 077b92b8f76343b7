"""Engine edge cases and semantic corners worth pinning explicitly."""

from __future__ import annotations

import pytest

from repro.baselines import make_records
from repro.errors import ConfigurationError, PageDeletedError, PageNotFoundError
from repro.storage.trace import shapes_identical

from tests.helpers import make_db


class TestUpdateSemantics:
    def test_update_revives_a_deleted_page(self):
        """§4.3 'the original page is replaced with the new version' —
        modification is an upsert: writing to a deleted id brings it back."""
        db = make_db(seed=950)
        db.delete(5)
        assert db.cop.state.is_deleted(5)
        db.update(5, b"revived")
        assert not db.cop.state.is_deleted(5)
        assert db.query(5) == b"revived"

    def test_update_of_reserve_page_is_an_insert_by_id(self):
        """Reserve ids are addressable: updating one takes it out of the
        free pool (equivalent to an insert that chose its own id)."""
        db = make_db(num_records=40, reserve_fraction=0.2, seed=951)
        reserve_id = db.params.num_user_pages  # first padding page
        free_before = db.cop.state.free_count
        db.update(reserve_id, b"claimed")
        assert db.query(reserve_id) == b"claimed"
        assert db.cop.state.free_count == free_before - 1

    def test_oversized_payload_rejected_before_any_disk_access(self):
        db = make_db(page_capacity=16, seed=952)
        accesses = len(db.trace)
        with pytest.raises(ConfigurationError):
            db.update(0, b"x" * 17)
        with pytest.raises(ConfigurationError):
            db.insert(b"y" * 17)
        assert len(db.trace) == accesses  # fail-fast, no trace side effects

    def test_exactly_full_payload_accepted(self):
        db = make_db(page_capacity=16, seed=953)
        db.update(0, b"z" * 16)
        assert db.query(0) == b"z" * 16


class TestDummyAndReserveQueries:
    def test_query_of_reserve_id_runs_then_raises(self):
        db = make_db(num_records=40, reserve_fraction=0.2, seed=954)
        reserve_id = db.params.num_user_pages
        before = db.engine.request_count
        with pytest.raises(PageDeletedError):
            db.query(reserve_id)
        assert db.engine.request_count == before + 1

    def test_query_of_cache_resident_dummy(self):
        """Ids [N, N+m) start inside the cache; querying one is a cache hit
        on a deleted page — full request, then the deleted error."""
        db = make_db(num_records=40, reserve_fraction=0.2, seed=955)
        cache_id = db.params.num_locations  # first cache-resident dummy
        with pytest.raises(PageDeletedError):
            db.query(cache_id)
        assert shapes_identical(db.trace, 0)

    def test_query_beyond_total_pages(self):
        db = make_db(seed=956)
        with pytest.raises(PageNotFoundError):
            db.query(db.params.total_pages)


class TestSoak:
    def test_long_mixed_soak_run(self):
        """A few thousand requests over a mid-size database: the invariants
        and data stay intact and the trace never changes shape."""
        from repro.crypto.rng import SecureRandom
        from repro.workload import operation_stream

        db = make_db(num_records=256, cache_capacity=16, page_capacity=16,
                     reserve_fraction=0.2, cipher_backend="null",
                     seed=957)
        rng = SecureRandom(958)
        # Read-mostly: 95 % queries, 5 % updates.
        stream = operation_stream(256, 2500, rng, mix=(0.95, 0.05, 0, 0))
        for op in stream:
            if op.kind == "update":
                db.update(op.page_id, op.payload)
            else:
                db.query(op.page_id)
        assert db.engine.request_count == 2500
        db.consistency_check()
        assert shapes_identical(db.trace, 0)
        # Everything that was never written is still its original payload.
        records = make_records(256, 16)
        written = {
            op.page_id for op in stream if op.kind == "update"
        }
        for page_id in range(0, 256, 17):
            if page_id not in written:
                assert db.query(page_id) == records[page_id]
