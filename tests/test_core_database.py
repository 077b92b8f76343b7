"""The PirDatabase facade: construction, options, storage, integrity."""

from __future__ import annotations

import pytest

from repro import PirDatabase
from repro.baselines import make_records
from repro.errors import AuthenticationError, ConfigurationError
from repro.hardware.specs import HardwareSpec

from tests.helpers import make_db


class TestConstruction:
    def test_empty_records_rejected(self):
        with pytest.raises(ConfigurationError):
            PirDatabase.create([], cache_capacity=4)

    def test_unknown_setup_mode(self):
        with pytest.raises(ConfigurationError):
            PirDatabase.create([b"x"] * 20, cache_capacity=4, page_capacity=16,
                               setup_mode="magic")

    @pytest.mark.parametrize("knob", [
        {"keystream_pipeline": "sync"}, {"pipeline_max_bytes": 1},
    ])
    def test_keystream_pipeline_knobs_are_gone(self, knob):
        with pytest.raises(TypeError):
            make_db(**knob)

    def test_num_pages_reports_user_pages(self, small_db, records):
        assert small_db.num_pages == len(records)

    def test_block_size_override_beats_target_c(self):
        db = make_db(block_size=4, target_c=99.0)
        assert db.params.block_size == 4

    def test_free_pages_cover_reserve(self):
        db = make_db(num_records=40, reserve_fraction=0.25, seed=2)
        assert db.params.free_pages >= 10

    def test_seed_reproducibility(self):
        a = make_db(seed=123)
        b = make_db(seed=123)
        # Same seed -> identical permutation -> identical ciphertext layout.
        assert [a.disk.peek(i) for i in range(5)] == [
            b.disk.peek(i) for i in range(5)
        ]

    def test_different_seeds_differ(self):
        a, b = make_db(seed=1), make_db(seed=2)
        assert [a.disk.peek(i) for i in range(5)] != [
            b.disk.peek(i) for i in range(5)
        ]

    def test_every_location_initialised(self, small_db):
        assert small_db.disk.initialised_locations() == small_db.params.num_locations

    def test_aes_backend_end_to_end(self):
        db = make_db(num_records=12, cache_capacity=2, page_capacity=16,
                     cipher_backend="aes", block_size=3, seed=3)
        recs = make_records(12, 16)
        for i in range(12):
            assert db.query(i) == recs[i]

    def test_null_backend_end_to_end(self):
        db = make_db(num_records=20, cipher_backend="null", seed=4)
        recs = make_records(20, 16)
        for i in range(20):
            assert db.query(i) == recs[i]


class TestObliviousSetup:
    def test_oblivious_setup_correctness(self):
        db = make_db(num_records=20, cache_capacity=4, page_capacity=16,
                     setup_mode="oblivious", block_size=4, seed=7)
        recs = make_records(20, 16)
        for i in range(20):
            assert db.query(i) == recs[i]
        db.consistency_check()

    def test_oblivious_setup_layout_differs_from_identity(self):
        db = make_db(num_records=24, setup_mode="oblivious", block_size=4, seed=8)
        layout = [
            db.cop.state.lookup(i).position
            for i in range(24)
            if not db.cop.state.is_cached(i)
        ]
        assert layout != sorted(layout)


class TestStorageAccounting:
    def test_report_matches_eq7_structure(self, small_db):
        report = small_db.storage_report()
        params = small_db.params
        page_bytes = small_db.cop.plaintext_page_size
        assert report.page_cache == params.cache_capacity * page_bytes
        assert report.server_block == (params.block_size + 1) * page_bytes
        assert report.total > 0

    def test_memory_limit_enforcement(self):
        with pytest.raises(Exception):
            make_db(
                spec=HardwareSpec(secure_memory=128),
                enforce_memory_limit=True,
            )

    def test_expected_query_time_matches_costmodel_shape(self, timed_db):
        """Eq. 8 with the frame size as B; four seeks dominate small pages."""
        expected = timed_db.expected_query_time()
        assert expected > 4 * 5e-3  # at least the four seeks
        timed_db.query(0)
        # One real request should charge approximately the Eq. 8 amount.
        assert timed_db.clock.now > 0


class TestIntegrity:
    def test_consistency_check_passes_fresh(self, small_db):
        small_db.consistency_check()

    def test_tampered_frame_detected_on_read(self, small_db):
        # Corrupt the ciphertext at location 0 (first block, read next).
        frame = bytearray(small_db.disk.peek(0))
        frame[-1] ^= 0xFF
        small_db.disk.poke(0, bytes(frame))
        with pytest.raises(AuthenticationError):
            for i in range(small_db.num_pages):
                small_db.query(i)

    def test_consistency_check_detects_corruption(self, small_db):
        frame = bytearray(small_db.disk.peek(3))
        frame[0] ^= 1
        small_db.disk.poke(3, bytes(frame))
        with pytest.raises(AuthenticationError):
            small_db.consistency_check()

    def test_query_measured_time_matches_eq8(self, timed_db):
        """The executed engine charges exactly the Eq. 8 cost per request."""
        start = timed_db.clock.now
        timed_db.query(0)
        measured = timed_db.clock.now - start
        assert measured == pytest.approx(timed_db.expected_query_time(), rel=1e-9)

    def test_constant_time_across_many_requests(self, timed_db):
        times = []
        for i in range(20):
            start = timed_db.clock.now
            timed_db.query(i % timed_db.num_pages)
            times.append(timed_db.clock.now - start)
        assert max(times) == pytest.approx(min(times), rel=1e-12)
