"""§4.3 update handling: modifications, insertions, deletions."""

from __future__ import annotations

import pytest

from repro.baselines import make_records
from repro.errors import CapacityError, PageDeletedError, PageNotFoundError
from repro.storage.trace import shapes_identical

from tests.helpers import make_db


class TestModify:
    def test_modify_then_query(self, small_db):
        small_db.update(3, b"revised")
        assert small_db.query(3) == b"revised"

    def test_modify_cached_page(self, small_db):
        small_db.query(3)  # bring into the cache
        assert small_db.cop.state.is_cached(3)
        small_db.update(3, b"cached-edit")
        assert small_db.query(3) == b"cached-edit"

    def test_modify_survives_churn(self, small_db, records):
        small_db.update(7, b"sticky")
        for i in range(60):
            small_db.query(i % small_db.num_pages)
        assert small_db.query(7) == b"sticky"
        small_db.consistency_check()

    def test_repeated_modifications(self, small_db):
        for version in range(10):
            small_db.update(1, bytes([version]) * 4)
        assert small_db.query(1) == bytes([9]) * 4


class TestDelete:
    def test_delete_then_query_raises(self, small_db):
        small_db.delete(4)
        with pytest.raises(PageDeletedError):
            small_db.query(4)

    def test_double_delete_rejected(self, small_db):
        small_db.delete(4)
        with pytest.raises(PageNotFoundError):
            small_db.delete(4)

    def test_delete_cached_page_is_force_evicted(self, small_db):
        """§4.3: a cached deleted page always swaps into the block."""
        small_db.query(6)  # cache it
        assert small_db.cop.state.is_cached(6)
        small_db.delete(6)
        assert not small_db.cop.state.is_cached(6)
        assert small_db.cop.state.is_deleted(6)

    def test_delete_disk_page(self, small_db):
        # Fresh db: page 11 not yet cached.
        assert not small_db.cop.state.is_cached(11)
        small_db.delete(11)
        assert small_db.cop.state.is_deleted(11)
        small_db.consistency_check()

    def test_delete_grows_free_pool(self, small_db):
        before = small_db.cop.state.free_count
        small_db.delete(2)
        assert small_db.cop.state.free_count == before + 1


class TestInsert:
    def test_insert_into_reserve(self, small_db):
        new_id = small_db.insert(b"brand new")
        assert small_db.query(new_id) == b"brand new"
        assert not small_db.cop.state.is_deleted(new_id)

    def test_insert_consumes_free_pool(self, small_db):
        before = small_db.cop.state.free_count
        small_db.insert(b"x")
        assert small_db.cop.state.free_count == before - 1

    def test_insert_reuses_deleted_slot(self):
        db = make_db(num_records=40, seed=9)  # no reserve_fraction
        free_before = db.cop.state.free_count
        db.delete(5)
        new_id = db.insert(b"recycled")
        assert db.query(new_id) == b"recycled"
        assert db.cop.state.free_count == free_before

    def test_insert_exhaustion(self):
        db = make_db(num_records=40, seed=10)
        inserted = []
        with pytest.raises(CapacityError):
            for _ in range(1000):  # far beyond any padding
                inserted.append(db.insert(b"fill"))
        # Everything that fit must still be retrievable.
        for page_id in inserted:
            assert db.query(page_id) == b"fill"

    def test_insert_then_delete_then_insert(self, small_db):
        first = small_db.insert(b"one")
        small_db.delete(first)
        second = small_db.insert(b"two")
        assert small_db.query(second) == b"two"
        small_db.consistency_check()


class TestUpdatePrivacy:
    def test_all_operations_share_one_trace_shape(self, small_db):
        """§4.3's claim: the op type is invisible in the disk access pattern."""
        small_db.query(0)
        small_db.update(1, b"v2")
        small_db.insert(b"new")
        small_db.delete(2)
        small_db.touch()
        assert small_db.engine.request_count == 5
        assert shapes_identical(small_db.trace, 0, 4)

    def test_mixed_long_workload_consistency(self, small_db):
        from repro.crypto.rng import SecureRandom
        from repro.workload import operation_stream

        rng = SecureRandom(42)
        expected = {i: None for i in range(small_db.num_pages)}
        operations = operation_stream(small_db.num_pages, 120, rng)
        for op in operations:
            if op.kind == "query":
                try:
                    small_db.query(op.page_id)
                except PageDeletedError:
                    pass
            elif op.kind == "update":
                small_db.update(op.page_id, op.payload)
                expected[op.page_id] = op.payload
            elif op.kind == "insert":
                try:
                    new_id = small_db.insert(op.payload)
                    expected[new_id] = op.payload
                except CapacityError:
                    pass
            else:
                try:
                    small_db.delete(op.page_id)
                    expected.pop(op.page_id, None)
                except PageNotFoundError:
                    pass
        small_db.consistency_check()
        for page_id, payload in expected.items():
            if payload is not None:
                assert small_db.query(page_id) == payload
        assert shapes_identical(small_db.trace, 0)

    def test_deleted_page_query_still_issues_full_request(self, small_db):
        """The trace must not reveal that a query hit a deleted page."""
        small_db.delete(3)
        requests_before = small_db.engine.request_count
        with pytest.raises(PageDeletedError):
            small_db.query(3)
        assert small_db.engine.request_count == requests_before + 1
        assert shapes_identical(small_db.trace, 0)
