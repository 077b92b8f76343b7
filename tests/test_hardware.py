"""Secure-hardware substrate: specs, cache, page map, coprocessor."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.crypto.rng import SecureRandom
from repro.errors import (
    CapacityError,
    ConfigurationError,
    PageNotFoundError,
)
from repro.hardware.cache import LRU_POLICY, PageCache
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.pagemap import PageMap
from repro.hardware.specs import IBM_4764, MEGABYTE, HardwareSpec
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
    def test_disk_and_cache_transitions(self):
        pm = PageMap(10)
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
        pm = PageMap(4)
        pm.set_cached(0, 0)
        pm.set_cached(0, 1)
        assert pm.cached_count == 1

    def test_disk_location_of_cached_page_fails(self):
        pm = PageMap(4)
        pm.set_cached(1, 0)
        with pytest.raises(PageNotFoundError):
            pm.disk_location(1)

    def test_unset_page(self):
        pm = PageMap(4)
        with pytest.raises(PageNotFoundError):
            pm.lookup(0)

    def test_out_of_range(self):
        pm = PageMap(4)
        with pytest.raises(PageNotFoundError):
            pm.lookup(4)
        with pytest.raises(PageNotFoundError):
            pm.is_cached(-1)

    def test_free_pool(self):
        pm = PageMap(6)
        for page_id in range(6):
            pm.set_disk(page_id, page_id)
        pm.mark_deleted(2)
        pm.mark_deleted(4)
        assert pm.free_count == 2
        assert pm.any_free_id() in {2, 4}
        assert pm.is_deleted(4)
        pm.mark_live(4)
        assert pm.free_count == 1 and not pm.is_deleted(4)

    def test_no_free_pages(self):
        with pytest.raises(PageNotFoundError):
            PageMap(3).any_free_id()

    def test_storage_accounting(self):
        pm = PageMap(1024)
        # 1024 * (10 + 1) bits = 1408 bytes.
        assert pm.storage_bits() == 1024 * 11
        assert pm.storage_bytes() == math.ceil(1024 * 11 / 8)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            PageMap(0)
        pm = PageMap(2)
        with pytest.raises(ConfigurationError):
            pm.set_disk(0, -1)
        with pytest.raises(ConfigurationError):
            pm.set_cached(0, -1)

    def test_columns_load_as_the_per_entry_calls_build_them(self):
        """``load_columns`` is ``set_disk`` / ``set_cached`` /
        ``mark_deleted`` over every id: same entries, free pool and cached
        count, and ``columns`` reads them back."""
        in_cache = [False, True, False, True, False]
        position = [3, 0, 1, 1, 0]
        deleted = [False, True, True, False, False]
        one_by_one = PageMap(5)
        for page_id in range(5):
            if in_cache[page_id]:
                one_by_one.set_cached(page_id, position[page_id])
            else:
                one_by_one.set_disk(page_id, position[page_id])
            if deleted[page_id]:
                one_by_one.mark_deleted(page_id)
        bulk = PageMap(5)
        bulk.set_cached(4, 7)  # replaced, not merged
        bulk.mark_deleted(4)
        bulk.load_columns(np.array(in_cache), np.array(position, ">u8"),
                          deleted)
        for pm in (one_by_one, bulk):
            assert [col.tolist() for col in pm.columns()] == [
                in_cache, position, deleted]
            assert pm.free_ids() == {1, 2} and pm.cached_count == 2
            assert pm.lookup(3).in_cache and pm.lookup(3).position == 1

    def test_bulk_forms_refuse_what_the_per_entry_calls_refuse(self):
        pm = PageMap(3)
        with pytest.raises(ConfigurationError, match="non-negative"):
            pm.load_columns([False] * 3, [0, -1, 2], [False] * 3)
        # A u8 position past 2^63 cannot pass as a location either.
        with pytest.raises(ConfigurationError, match="non-negative"):
            pm.load_columns([False] * 3, np.array([0, 2**64 - 1, 2], ">u8"),
                            [False] * 3)
        with pytest.raises(ConfigurationError, match="3 entries"):
            pm.load_columns([False] * 2, [0, 1], [False] * 2)
        # Nothing was loaded, and a page never placed is not read as 2^64-1.
        pm.set_disk(0, 0)
        pm.set_disk(2, 2)
        with pytest.raises(PageNotFoundError,
                           match="page id 1 has no recorded position"):
            pm.columns()


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
        assert report.page_map == cop.page_map.storage_bytes()
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
