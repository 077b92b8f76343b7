"""Secure-hardware substrate: specs, cache, trusted state, coprocessor."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.crypto.rng import SecureRandom
from repro.errors import (
    CapacityError,
    ConfigurationError,
    PageNotFoundError,
    StorageError,
)
from repro.hardware.cache import LRU_POLICY, PageCache
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.specs import IBM_4764, MEGABYTE, HardwareSpec
from repro.hardware.trusted import TAG_KEY_SIZE, TrustedState
from repro.sim.clock import VirtualClock
from repro.storage.page import Page


class TestHardwareSpec:
    def test_table2_defaults(self):
        assert IBM_4764.secure_memory == 64 * MEGABYTE
        assert IBM_4764.link_bandwidth == 80e6
        assert IBM_4764.crypto_throughput == 10e6
        assert IBM_4764.disk.seek_time == 5e-3
        assert IBM_4764.disk.read_bandwidth == 100e6

    def test_scaled_units(self):
        two = IBM_4764.scaled(2)
        assert two.total_secure_memory == 128 * MEGABYTE
        assert two.link_bandwidth == IBM_4764.link_bandwidth

    def test_timing(self):
        assert IBM_4764.link_time(80e6) == pytest.approx(1.0)
        assert IBM_4764.crypto_time(10e6) == pytest.approx(1.0)
        assert IBM_4764.ingest_time(0) == 0.0

    def test_instantaneous(self):
        spec = HardwareSpec.instantaneous()
        assert spec.ingest_time(10**12) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HardwareSpec(secure_memory=0)
        with pytest.raises(ConfigurationError):
            HardwareSpec(units=0)
        with pytest.raises(ConfigurationError):
            IBM_4764.link_time(-1)


class TestPageCache:
    def _cache(self, m=8, policy="random", seed=1):
        cache = PageCache(m, SecureRandom(seed), policy)
        cache.fill([Page(100 + slot, b"") for slot in range(m)])
        return cache

    def test_fill_and_get(self):
        cache = self._cache()
        assert cache.get(3).page_id == 103
        assert cache.is_full and len(cache) == 8

    def test_put_returns_previous(self):
        cache = self._cache()
        previous = cache.put(2, Page(7, b"x"))
        assert previous.page_id == 102
        assert cache.get(2).page_id == 7

    def test_fill_requires_exact_count(self):
        cache = PageCache(4, SecureRandom(1))
        with pytest.raises(CapacityError):
            cache.fill([Page(1)])

    def test_victim_uniformity(self):
        cache = self._cache(m=4, seed=3)
        counts = [0, 0, 0, 0]
        for _ in range(4000):
            counts[cache.victim_slot()] += 1
        assert all(850 < c < 1150 for c in counts), counts

    def test_victim_requires_full_cache(self):
        cache = PageCache(4, SecureRandom(1))
        with pytest.raises(CapacityError):
            cache.victim_slot()

    def test_lru_policy_evicts_oldest(self):
        cache = self._cache(m=3, policy=LRU_POLICY)
        cache.put(0, Page(1, b""))
        cache.put(1, Page(2, b""))
        # Slot 2 was never re-stored since fill -> least recently used.
        assert cache.victim_slot() == 2

    def test_slot_of(self):
        cache = self._cache()
        assert cache.slot_of(105) == 5
        assert cache.slot_of(999) is None

    def test_iteration(self):
        cache = self._cache(m=3)
        assert sorted(p.page_id for p in cache) == [100, 101, 102]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            PageCache(0, SecureRandom(1))
        with pytest.raises(ConfigurationError):
            PageCache(2, SecureRandom(1), policy="fifo")
        cache = self._cache()
        with pytest.raises(ConfigurationError):
            cache.get(8)


class TestPageMap:
    """The position-map half of :class:`TrustedState`."""

    def test_disk_and_cache_transitions(self):
        pm = TrustedState(8, 3, 2)
        pm.set_disk(3, 7)
        assert not pm.is_cached(3)
        assert pm.disk_location(3) == 7
        pm.set_cached(3, 2)
        assert pm.is_cached(3)
        assert pm.lookup(3).position == 2
        assert pm.cached_count == 1
        pm.set_disk(3, 1)
        assert pm.cached_count == 0

    def test_cached_count_idempotent(self):
        pm = TrustedState(2, 2, 1)
        pm.set_cached(0, 0)
        pm.set_cached(0, 1)
        assert pm.cached_count == 1

    def test_disk_location_of_cached_page_fails(self):
        pm = TrustedState(2, 2, 1)
        pm.set_cached(1, 0)
        with pytest.raises(PageNotFoundError):
            pm.disk_location(1)

    def test_unset_page(self):
        pm = TrustedState(2, 2, 1)
        with pytest.raises(PageNotFoundError):
            pm.lookup(0)

    def test_out_of_range(self):
        pm = TrustedState(2, 2, 1)
        with pytest.raises(PageNotFoundError):
            pm.lookup(4)
        with pytest.raises(PageNotFoundError):
            pm.is_cached(-1)

    def test_free_pool(self):
        pm = TrustedState(6, 1, 1)
        for page_id in range(6):
            pm.set_disk(page_id, page_id)
        pm.mark_deleted(2)
        pm.mark_deleted(4)
        assert pm.free_count == 2
        assert pm.any_free_id() in {2, 4}
        assert pm.is_deleted(4)
        pm.mark_live(4)
        assert pm.free_count == 1 and not pm.is_deleted(4)
        # Deletion is a flag beside the position, not a value of it.
        pm.mark_deleted(4)
        assert pm.disk_location(4) == 4

    def test_no_free_pages(self):
        with pytest.raises(PageNotFoundError):
            TrustedState(2, 1, 1).any_free_id()

    def test_storage_accounting(self):
        pm = TrustedState(1000, 24, 10)
        # 1024 * (10 + 1) bits = 1408 bytes.
        assert pm.storage_bits() == 1024 * 11
        assert pm.storage_bytes() == math.ceil(1024 * 11 / 8)

    def test_invalid_sizes(self):
        for shape in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ConfigurationError):
                TrustedState(*shape)
        pm = TrustedState(2, 2, 1)
        with pytest.raises(ConfigurationError):
            pm.set_disk(0, -1)
        with pytest.raises(ConfigurationError):
            pm.set_cached(0, -1)
        # Past its container: a location is below n, a slot below m.
        with pytest.raises(ConfigurationError):
            pm.set_disk(0, 2)
        with pytest.raises(ConfigurationError):
            pm.set_cached(0, 2)

    def test_columns_load_as_the_per_entry_calls_build_them(self):
        """``load_columns`` is ``set_disk`` / ``set_cached`` /
        ``mark_deleted`` over every id: same columns, free pool and cached
        count."""
        in_cache = [False, True, False, True, False]
        position = [2, 0, 1, 1, 0]
        deleted = [False, True, True, False, False]
        one_by_one = TrustedState(3, 2, 1)
        for page_id in range(5):
            if in_cache[page_id]:
                one_by_one.set_cached(page_id, position[page_id])
            else:
                one_by_one.set_disk(page_id, position[page_id])
            if deleted[page_id]:
                one_by_one.mark_deleted(page_id)
        bulk = TrustedState(3, 2, 1)
        bulk.set_cached(4, 1)  # replaced, not merged
        bulk.mark_deleted(4)
        bulk.load_columns(np.array(in_cache), np.array(position, ">u8"),
                          deleted)
        for pm in (one_by_one, bulk):
            assert pm.position.tolist() == position
            assert pm.flags.tolist() == [4, 7, 6, 5, 4]
            assert pm.free_ids() == {1, 2} and pm.cached_count == 2
            assert pm.lookup(3).in_cache and pm.lookup(3).position == 1

    def test_bulk_forms_refuse_what_the_per_entry_calls_refuse(self):
        pm = TrustedState(3, 1, 1)
        with pytest.raises(ConfigurationError, match="page id 1: position -1"):
            pm.load_columns([False] * 4, [0, -1, 2, 0], [False] * 4)
        # A u8 position past the last location cannot pass as one either,
        # nor a slot past the cache.
        with pytest.raises(ConfigurationError, match="page id 1: position"):
            pm.load_columns([False] * 4,
                            np.array([0, 2**64 - 1, 2, 0], ">u8"),
                            [False] * 4)
        with pytest.raises(ConfigurationError, match="page id 3: position 1"):
            pm.load_columns([False] * 3 + [True], [0, 1, 2, 1], [False] * 4)
        with pytest.raises(ConfigurationError, match="4 entries"):
            pm.load_columns([False] * 2, [0, 1], [False] * 2)
        # Nothing was loaded, and a page never placed is refused, not
        # encoded as some position.
        pm.set_disk(0, 0)
        pm.set_disk(2, 2)
        pm.set_cached(3, 0)
        with pytest.raises(PageNotFoundError,
                           match="page id 1 has no recorded position"):
            pm.lookup(1)
        with pytest.raises(PageNotFoundError,
                           match="page id 1 has no recorded position"):
            pm.encode(PageCache(1, SecureRandom(1)), None)


class TestTrustedState:
    @staticmethod
    def _state(n=6, m=2, k=3):
        state = TrustedState(n, m, k)
        state.load_columns([False] * n + [True] * m,
                           list(range(n)) + list(range(m)),
                           [False] * (n - 1) + [True] * (m + 1))
        cache = PageCache(m, SecureRandom(1))
        cache.fill([Page(n + slot, b"", deleted=True) for slot in range(m)])
        return state, cache

    def test_eq7_width(self):
        """At n = 2^16 and m = 1024 the columns hold 3 bytes per entry
        against Eq. 7's 18 bits: within one byte per entry of the term
        storage_bits() charges."""
        state = TrustedState(2**16, 1024, 64)
        assert state.position.dtype == np.dtype("<u2")
        entries = state.num_pages
        nbytes = state.position.nbytes + state.flags.nbytes
        assert nbytes == 3 * entries
        eq7 = entries * (math.ceil(math.log2(entries)) + 1) / 8
        assert state.storage_bits() == entries * 18
        assert 0 <= nbytes - eq7 <= entries

    def test_round_trip(self):
        state, cache = self._state()
        state.advance(1, 7, 2)
        for _ in range(3):
            state.begin_epoch(bytes(range(TAG_KEY_SIZE)))
            state.end_epoch()
        state.begin_epoch(b"k" * TAG_KEY_SIZE)
        state.advance_epoch(11)
        state.next_resume()
        state.advance_stream("peer:2", 9)
        state.advance_stream("origin:1", 4)
        state.advance_stream("peer:2", 10)
        state.set_cached(2, 1)
        cache.put(1, Page(2, b"cached"))
        state.set_disk(7, 2)
        blob = state.encode(cache, b"legacy-key")

        restored, restored_cache = TrustedState(6, 2, 3), PageCache(
            2, SecureRandom(2))
        adopted = []
        restored.decode(blob, restored_cache,
                        SimpleNamespace(adopt_legacy_key=adopted.append))
        assert adopted == [b"legacy-key"]
        assert (restored.next_block, restored.request_count,
                restored.rotation_left, restored.epoch_base) == (1, 7, 2, 4)
        assert (restored.epoch_frontier, restored.epoch_active,
                restored.epoch_key) == (11, True, b"k" * TAG_KEY_SIZE)
        assert (restored.stream_mark("origin:1"), restored.stream_mark("peer:2"),
                restored.stream_mark("other:3")) == (4, 10, 0)
        assert restored.position.tolist() == state.position.tolist()
        assert restored.flags.tolist() == state.flags.tolist()
        assert restored.free_ids() == state.free_ids() == {5, 6, 7}
        assert [restored_cache.get(s) for s in range(2)] == [
            cache.get(s) for s in range(2)]
        assert restored.encode(restored_cache, b"legacy-key") == blob
        assert restored.next_resume() == 2

    @pytest.mark.parametrize("shape", [(6, 2, 2), (6, 3, 3), (9, 2, 3)])
    def test_decode_refuses_another_shape(self, shape):
        state, cache = self._state()
        blob = state.encode(cache, None)
        with pytest.raises(StorageError, match=r"sealed as \(layout, n, m, k\)"):
            TrustedState(*shape).decode(blob, cache, None)

    def test_decode_refuses_a_pointer_past_the_last_block(self):
        state, cache = self._state()
        state.advance(state.num_blocks, 0, None)
        blob = state.encode(cache, None)
        restored = TrustedState(6, 2, 3)
        with pytest.raises(StorageError, match="block pointer 2"):
            restored.decode(blob, PageCache(2, SecureRandom(1)), None)
        assert restored.next_block == 0
        assert not restored.flags.any()

    @pytest.mark.parametrize("length", [1, TAG_KEY_SIZE - 1, TAG_KEY_SIZE + 1])
    def test_decode_refuses_an_epoch_key_of_another_length(self, length):
        state, cache = self._state()
        state.begin_epoch(b"k" * length)
        state.end_epoch()
        blob = state.encode(cache, None)
        restored = TrustedState(6, 2, 3)
        with pytest.raises(StorageError, match=f"epoch key is {length} bytes"):
            restored.decode(blob, PageCache(2, SecureRandom(1)), None)
        assert restored.epoch_base == 0 and restored.epoch_key == b""
        assert not restored.flags.any()

    def test_decode_refuses_an_active_epoch_with_no_key(self):
        state, cache = self._state()
        state.begin_epoch(b"")
        blob = state.encode(cache, None)
        restored = TrustedState(6, 2, 3)
        with pytest.raises(StorageError, match="epoch 1 is active with no key"):
            restored.decode(blob, PageCache(2, SecureRandom(1)), None)
        assert restored.epoch_base == 0 and not restored.epoch_active
        assert not restored.flags.any()

    def test_decode_gives_a_legacy_key_a_countdown(self):
        """A rotation is a legacy key and a countdown together: a legacy
        key sealed with none restores with a full scan period."""
        state, cache = self._state()
        blob = state.encode(cache, b"legacy-key")
        assert state.rotation_left is None
        restored, adopted = TrustedState(6, 2, 3), []
        restored.decode(blob, PageCache(2, SecureRandom(1)),
                        SimpleNamespace(adopt_legacy_key=adopted.append))
        assert adopted == [b"legacy-key"]
        assert restored.rotation_left == restored.num_blocks

    def test_decode_refuses_a_countdown_with_no_legacy_key(self):
        state, cache = self._state()
        state.start_rotation_countdown()
        blob = state.encode(cache, None)
        restored = TrustedState(6, 2, 3)
        with pytest.raises(StorageError, match="no legacy key"):
            restored.decode(blob, PageCache(2, SecureRandom(1)), None)
        assert restored.rotation_left is None
        assert not restored.flags.any()


    def test_advance_refuses_an_empty_origin(self):
        state, _ = self._state()
        with pytest.raises(ConfigurationError, match="non-empty"):
            state.advance_stream("", 1)
        assert state.stream_mark("") == 0

    @pytest.mark.parametrize("patched,error", [
        (b"\x00\x00", "origin '' is empty or not after 'origin-a'"),
        (b"\x00\x08origin-\xff", "not UTF-8"),
        (b"\x00\x08origin-a", "'origin-a' is empty or not after 'origin-a'"),
        (b"\x00\x08origin-0", "'origin-0' is empty or not after 'origin-a'"),
    ], ids=["empty", "not-utf8", "repeated", "decreasing"])
    def test_decode_refuses_a_malformed_stream_vector(self, patched, error):
        """One state has one encoding: origins are non-empty UTF-8 names
        in strictly increasing order, checked before any field changes.
        (An emptied origin's length is 0, so its name reads as the seq.)"""
        state, cache = self._state()
        state.advance_stream("origin-a", 1)
        state.advance_stream("origin-b", 2)
        blob = state.encode(cache, None)
        second = b"\x00\x08origin-b"
        assert blob.count(second) == 1
        restored = TrustedState(6, 2, 3)
        with pytest.raises(StorageError, match=error):
            restored.decode(blob.replace(second, patched),
                            PageCache(2, SecureRandom(1)), None)
        assert restored.stream_mark("origin-a") == 0
        assert not restored.flags.any()


class TestSecureCoprocessor:
    def _cop(self, **overrides):
        options = dict(
            num_pages=20,
            cache_capacity=4,
            block_size=4,
            page_capacity=16,
            clock=VirtualClock(),
            rng=SecureRandom(5),
        )
        options.update(overrides)
        return SecureCoprocessor(**options)

    def test_a_rotation_is_a_legacy_key_and_a_countdown(self):
        cop = self._cop()
        cop.begin_key_rotation(b"next master key")
        assert cop.rotation_in_progress
        assert cop.state.rotation_left == cop.state.num_blocks

    def test_a_rotation_mid_epoch_is_refused_before_anything_changes(self):
        cop = self._cop()
        cop.state.begin_epoch(b"k" * TAG_KEY_SIZE)
        suite = cop.suite
        with pytest.raises(ConfigurationError, match="finish the epoch"):
            cop.begin_key_rotation(b"next master key")
        assert cop.suite is suite and not cop.rotation_in_progress
        assert cop.state.rotation_left is None

    def test_seal_unseal(self):
        cop = self._cop()
        page = Page(3, b"hello")
        assert cop.unseal(cop.seal(page)) == page

    def test_frame_size_consistent(self):
        cop = self._cop()
        assert len(cop.seal(Page(0, b""))) == cop.frame_size

    def test_storage_report_mirrors_eq7(self):
        cop = self._cop()
        report = cop.storage_report()
        page_bytes = cop.plaintext_page_size
        assert report.page_cache == 4 * page_bytes
        assert report.server_block == 5 * page_bytes
        assert report.page_map == cop.state.storage_bytes()
        assert report.total == report.page_map + report.page_cache + report.server_block

    def test_memory_limit_enforced(self):
        tiny = HardwareSpec(secure_memory=64)  # bytes, absurdly small
        with pytest.raises(CapacityError):
            self._cop(spec=tiny, enforce_memory_limit=True)

    def test_memory_limit_pass(self):
        cop = self._cop(spec=IBM_4764, enforce_memory_limit=True)
        assert cop.storage_report().total < IBM_4764.secure_memory

    def test_timing_charges(self):
        clock = VirtualClock()
        cop = self._cop(spec=IBM_4764, clock=clock)
        cop.charge_ingest(2)
        expected = IBM_4764.ingest_time(2 * cop.frame_size)
        assert clock.now == pytest.approx(expected)
        cop.charge_egress(2)
        assert clock.now == pytest.approx(2 * expected)
