"""Workload generators: ranges, skew, operation mixes."""

from __future__ import annotations

import pytest

from repro.baselines import make_records
from repro.crypto.rng import SecureRandom
from repro.errors import ConfigurationError
from repro.workload import (
    Operation,
    ZipfSampler,
    operation_stream,
    uniform_stream,
    zipf_stream,
)
from tests.helpers import make_db


class TestUniform:
    def test_in_range(self):
        stream = uniform_stream(50, 500, SecureRandom(1))
        assert len(stream) == 500
        assert all(0 <= x < 50 for x in stream)

    def test_covers_space(self):
        stream = uniform_stream(10, 500, SecureRandom(2))
        assert set(stream) == set(range(10))

    def test_same_seed_same_stream(self):
        assert uniform_stream(50, 200, SecureRandom(3)) == \
            uniform_stream(50, 200, SecureRandom(3))
        assert uniform_stream(50, 200, SecureRandom(3)) != \
            uniform_stream(50, 200, SecureRandom(4))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_stream(0, 5, SecureRandom(1))
        with pytest.raises(ConfigurationError):
            uniform_stream(5, -1, SecureRandom(1))


class TestZipf:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(100, 0.9)
        total = sum(sampler.probability(i) for i in range(100))
        assert total == pytest.approx(1.0)

    def test_rank_zero_hottest(self):
        sampler = ZipfSampler(100, 1.0)
        assert sampler.probability(0) > sampler.probability(1) > sampler.probability(50)

    def test_theta_zero_is_uniform(self):
        sampler = ZipfSampler(10, 0.0)
        for i in range(10):
            assert sampler.probability(i) == pytest.approx(0.1)

    def test_stream_skew(self):
        stream = zipf_stream(100, 3000, SecureRandom(3), theta=1.1)
        top_share = sum(1 for x in stream if x < 10) / len(stream)
        assert top_share > 0.5  # hot head dominates

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, -1.0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, 1.0).probability(10)


class TestOperationStream:
    def test_kinds_and_mix(self):
        operations = operation_stream(50, 1000, SecureRandom(7))
        kinds = {op.kind for op in operations}
        assert kinds <= {"query", "update", "insert", "delete"}
        queries = sum(1 for op in operations if op.kind == "query")
        assert 0.6 < queries / len(operations) < 0.8

    def test_payloads_present_where_needed(self):
        for op in operation_stream(20, 200, SecureRandom(8)):
            if op.kind in ("update", "insert"):
                assert op.payload is not None
            if op.kind in ("query", "update", "delete"):
                assert op.page_id is not None

    def test_no_double_deletes_from_generator(self):
        operations = operation_stream(30, 400, SecureRandom(9),
                                      mix=(0.3, 0.1, 0.1, 0.5))
        deleted = set()
        for op in operations:
            if op.kind == "delete":
                assert op.page_id not in deleted
                deleted.add(op.page_id)

    def test_same_seed_same_stream(self):
        assert operation_stream(40, 300, SecureRandom(11)) == \
            operation_stream(40, 300, SecureRandom(11))

    def test_stream_applies_to_a_database(self):
        """Every generated operation is one the database accepts, and the
        queries read back the last value the stream wrote."""
        records = make_records(30, 16)
        db = make_db(num_records=30)
        expected = dict(enumerate(records))
        for op in operation_stream(30, 200, SecureRandom(12),
                                   mix=(0.6, 0.3, 0.0, 0.1)):
            if op.kind == "query":
                assert db.query(op.page_id) == expected[op.page_id]
            elif op.kind == "update":
                db.update(op.page_id, op.payload)
                expected[op.page_id] = op.payload
            else:
                db.delete(op.page_id)
                del expected[op.page_id]
        db.close()

    def test_bad_mix(self):
        with pytest.raises(ConfigurationError):
            operation_stream(10, 5, SecureRandom(1), mix=(1.0, 0.5, 0.0, 0.0))
        with pytest.raises(ConfigurationError):
            operation_stream(10, 5, SecureRandom(1), mix=(1.0, 0.0, 0.0))

    def test_bad_operation_kind(self):
        with pytest.raises(ConfigurationError):
            Operation("compact")
