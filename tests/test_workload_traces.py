"""Workload trace persistence and replay."""

from __future__ import annotations

import pytest

from repro.crypto.rng import SecureRandom
from repro.errors import ConfigurationError
from repro.workload import (
    Operation,
    load_trace,
    operation_stream,
    queries_as_operations,
    replay_trace,
    save_trace,
    uniform_stream,
)

from tests.helpers import make_db


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        operations = [
            Operation("query", 5),
            Operation("update", 3, b"\x00\xffpayload"),
            Operation("insert", None, b"new"),
            Operation("delete", 7),
        ]
        path = tmp_path / "trace.jsonl"
        assert save_trace(str(path), operations) == 4
        assert load_trace(str(path)) == operations

    def test_generated_stream_roundtrip(self, tmp_path):
        operations = operation_stream(30, 80, SecureRandom(4))
        path = tmp_path / "gen.jsonl"
        save_trace(str(path), operations)
        assert load_trace(str(path)) == operations

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"op": "query", "page": 1}\n\n{"op": "delete", "page": 2}\n')
        assert len(load_trace(str(path))) == 2

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError, match="line 1|:1:"):
            load_trace(str(path))

    def test_missing_op_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"page": 3}\n')
        with pytest.raises(ConfigurationError):
            load_trace(str(path))

    def test_unknown_op_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "explode", "page": 3}\n')
        with pytest.raises(ConfigurationError):
            load_trace(str(path))

    def test_bad_hex_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "insert", "payload": "zz"}\n')
        with pytest.raises(ConfigurationError):
            load_trace(str(path))


class TestReplay:
    def test_replay_applies_operations(self):
        db = make_db(num_records=30, reserve_fraction=0.3, seed=610)
        operations = [
            Operation("update", 2, b"replayed"),
            Operation("query", 2),
            Operation("insert", None, b"added"),
            Operation("delete", 5),
        ]
        counters = replay_trace(db, operations)
        assert counters.get("update") == 1
        assert counters.get("insert") == 1
        assert db.query(2) == b"replayed"

    def test_replay_counts_expected_failures(self):
        db = make_db(num_records=30, seed=611)
        operations = [
            Operation("delete", 4),
            Operation("delete", 4),  # double delete fails
            Operation("query", 4),   # deleted page fails
        ]
        counters = replay_trace(db, operations)
        assert counters.get("delete") == 1
        assert counters.get("delete_failed") == 1
        assert counters.get("query_failed") == 1

    def test_replay_is_deterministic_per_seed(self, tmp_path):
        operations = queries_as_operations(
            uniform_stream(30, 50, SecureRandom(9))
        )
        path = tmp_path / "queries.jsonl"
        save_trace(str(path), operations)
        loaded = load_trace(str(path))
        a = make_db(num_records=30, seed=612)
        b = make_db(num_records=30, seed=612)
        replay_trace(a, loaded)
        replay_trace(b, loaded)
        assert [a.disk.peek(i) for i in range(5)] == [
            b.disk.peek(i) for i in range(5)
        ]

    def test_same_trace_two_schemes(self, tmp_path):
        """The point of trace files: identical workloads across schemes."""
        from repro.twoparty import TwoPartySession
        from repro.baselines import make_records

        operations = queries_as_operations(
            uniform_stream(30, 30, SecureRandom(10))
        )
        records = make_records(30, 16)
        local = make_db(num_records=30, seed=613)
        owner = TwoPartySession.create(records, cache_capacity=8,
                                       page_capacity=16, seed=614).owner
        for op in operations:
            assert local.query(op.page_id) == owner.query(op.page_id)
