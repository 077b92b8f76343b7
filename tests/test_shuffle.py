"""Permutations and the oblivious shuffle (Batcher network)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import SecureRandom
from repro.crypto.suite import CipherSuite
from repro.errors import ConfigurationError
from repro.shuffle.oblivious import (
    ObliviousShuffler,
    batcher_network,
    direct_permute,
    network_size,
)
from repro.shuffle.permutation import Permutation
from repro.sim.clock import VirtualClock
from repro.storage.disk import DiskStore
from repro.storage.page import Page
from repro.storage.trace import READ


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(5)
        assert p.is_identity()
        assert [p.apply(i) for i in range(5)] == list(range(5))

    def test_apply_invert_roundtrip(self):
        p = Permutation([2, 0, 3, 1])
        for i in range(4):
            assert p.invert(p.apply(i)) == i

    def test_inverse_composes_to_identity(self):
        p = Permutation.random(20, SecureRandom(1))
        assert p.compose(p.inverse()).is_identity()
        assert p.inverse().compose(p).is_identity()

    def test_compose_order(self):
        p = Permutation([1, 2, 0])
        q = Permutation([2, 1, 0])
        composed = p.compose(q)
        for i in range(3):
            assert composed.apply(i) == p.apply(q.apply(i))

    def test_random_is_valid_permutation(self):
        p = Permutation.random(50, SecureRandom(2))
        assert sorted(p.as_list()) == list(range(50))

    def test_random_varies_with_seed(self):
        assert Permutation.random(30, SecureRandom(1)) != Permutation.random(
            30, SecureRandom(2)
        )

    def test_equality_and_hash(self):
        assert Permutation([1, 0]) == Permutation([1, 0])
        assert hash(Permutation([1, 0])) == hash(Permutation([1, 0]))
        assert Permutation([1, 0]) != Permutation([0, 1])

    def test_invalid_mappings(self):
        with pytest.raises(ConfigurationError):
            Permutation([])
        with pytest.raises(ConfigurationError):
            Permutation([0, 0])
        with pytest.raises(ConfigurationError):
            Permutation([0, 2])
        with pytest.raises(ConfigurationError):
            Permutation([0, 1]).apply(5)
        with pytest.raises(ConfigurationError):
            Permutation([0, 1]).compose(Permutation([0, 1, 2]))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=64), seed=st.integers(0, 1000))
    def test_random_property(self, n, seed):
        p = Permutation.random(n, SecureRandom(seed))
        assert sorted(p.apply(i) for i in range(n)) == list(range(n))


class TestBatcherNetwork:
    @pytest.mark.parametrize("n", list(range(1, 18)) + [32, 33, 64])
    def test_network_sorts(self, n):
        rng = SecureRandom(n)
        data = [rng.randrange(100) for _ in range(n)]
        for i, j in batcher_network(n):
            assert 0 <= i < j < n
            if data[i] > data[j]:
                data[i], data[j] = data[j], data[i]
        assert data == sorted(data)

    def test_network_sorts_adversarial_inputs(self):
        for n in (8, 13):
            for pattern in (list(range(n)), list(range(n))[::-1], [0] * n):
                data = list(pattern)
                for i, j in batcher_network(n):
                    if data[i] > data[j]:
                        data[i], data[j] = data[j], data[i]
                assert data == sorted(pattern)

    def test_network_is_data_independent(self):
        """The comparator sequence depends on n only."""
        assert list(batcher_network(16)) == list(batcher_network(16))

    def test_network_size_power_of_two(self):
        # Batcher odd-even merge sort on 8 elements uses 19 comparators.
        assert network_size(8) == 19

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            list(batcher_network(0))

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(st.integers(0, 50), min_size=1, max_size=40))
    def test_sorts_property(self, data):
        values = list(data)
        for i, j in batcher_network(len(values)):
            if values[i] > values[j]:
                values[i], values[j] = values[j], values[i]
        assert values == sorted(data)


class TestObliviousShuffler:
    def _shuffler(self, seed=1, capacity=8):
        suite = CipherSuite(b"shuffle-key", backend="shake", rng=SecureRandom(seed))
        return ObliviousShuffler(suite, SecureRandom(seed + 1), capacity)

    def _disk_for(self, shuffler, n):
        return DiskStore(n, shuffler.tagged_frame_size, clock=VirtualClock())

    def test_shuffle_produces_permutation(self):
        shuffler = self._shuffler()
        pages = [Page(i, bytes([i])) for i in range(16)]
        disk = self._disk_for(shuffler, 16)
        layout = shuffler.shuffle(pages, disk)
        assert sorted(layout) == list(range(16))

    def test_shuffle_moves_pages(self):
        shuffler = self._shuffler(seed=3)
        pages = [Page(i) for i in range(32)]
        layout = shuffler.shuffle(pages, self._disk_for(shuffler, 32))
        assert layout != list(range(32))

    def test_pages_intact_after_shuffle(self):
        shuffler = self._shuffler(seed=4)
        pages = [Page(i, bytes([i, i])) for i in range(12)]
        disk = self._disk_for(shuffler, 12)
        layout = shuffler.shuffle(pages, disk)
        for location in range(12):
            _tag, page = shuffler.unseal_tagged(disk.read(location))
            assert page.page_id == layout[location]
            assert page.payload == bytes([layout[location], layout[location]])

    def test_access_pattern_is_data_independent(self):
        """Two shuffles of different data produce identical trace shapes."""

        def trace_of(seed):
            shuffler = self._shuffler(seed=seed)
            pages = [Page(i, bytes([seed % 250]))
                     for i in range(10)]
            disk = self._disk_for(shuffler, 10)
            shuffler.shuffle(pages, disk)
            return [(e.op, e.location, e.count) for e in disk.trace]

        assert trace_of(5) == trace_of(6)

    def test_every_compare_rewrites_both_frames(self):
        shuffler = self._shuffler(seed=7)
        pages = [Page(i) for i in range(8)]
        disk = self._disk_for(shuffler, 8)
        shuffler.ingest(pages, disk)
        before = len(disk.trace)
        shuffler.sort(disk)
        sort_events = disk.trace.events[before:]
        reads = sum(1 for e in sort_events if e.op == READ)
        writes = len(sort_events) - reads
        assert reads == writes == 2 * network_size(8)

    def test_uniformity_coarse(self):
        """Each page lands in each slot roughly uniformly across seeds."""
        n, rounds = 4, 400
        counts = [[0] * n for _ in range(n)]
        for seed in range(rounds):
            shuffler = self._shuffler(seed=seed + 100, capacity=0)
            pages = [Page(i) for i in range(n)]
            layout = shuffler.shuffle(pages, self._disk_for(shuffler, n))
            for location, page_id in enumerate(layout):
                counts[page_id][location] += 1
        expected = rounds / n
        for row in counts:
            for count in row:
                assert 0.5 * expected < count < 1.6 * expected, counts

    def test_frame_size_mismatch(self):
        shuffler = self._shuffler()
        wrong_disk = DiskStore(4, 10, clock=VirtualClock())
        with pytest.raises(ConfigurationError):
            shuffler.ingest([Page(i) for i in range(4)], wrong_disk)

    def test_page_count_mismatch(self):
        shuffler = self._shuffler()
        disk = self._disk_for(shuffler, 4)
        with pytest.raises(ConfigurationError):
            shuffler.ingest([Page(0)], disk)


class TestDirectPermute:
    def test_applies_forward(self):
        pages = [Page(i) for i in range(4)]
        p = Permutation([2, 0, 3, 1])
        result = direct_permute(pages, p)
        for i in range(4):
            assert result[p.apply(i)].page_id == i

    def test_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            direct_permute([Page(0)], Permutation([0, 1]))
