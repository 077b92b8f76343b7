"""Permutations and the oblivious shuffle (Batcher network)."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PirDatabase
from repro.core.journal import MemoryJournal
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.crypto.rng import SecureRandom
from repro.errors import ConfigurationError
from repro.shuffle.oblivious import batcher_network, network_size
from repro.shuffle.permutation import Permutation
from repro.storage.disk import DiskStore, StoreWrapper
from repro.storage.trace import READ, WRITE


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


def oblivious_db(num_records=12, seed=1, fill=None, **options):
    """An oblivious build: identity layout, then one foreground epoch."""
    records = [bytes([fill if fill is not None else i, i])
               for i in range(num_records)]
    return PirDatabase.create(records, cache_capacity=4, block_size=4,
                              page_capacity=2, seed=seed,
                              setup_mode="oblivious", **options)


def layout_of(db):
    """The page id stored at each disk location, from the page map."""
    layout = [0] * db.params.num_locations
    for page_id in range(db.params.num_locations):
        layout[db.cop.state.lookup(page_id).position] = page_id
    return layout


def first_touch_order(units):
    """The locations a batch of units touches, in first-touch order."""
    order = {}
    for unit in units:
        for location in unit if isinstance(unit, tuple) else (unit,):
            order.setdefault(location, None)
    return list(order)


class TestObliviousBuild:
    def test_shuffle_produces_permutation(self):
        db = oblivious_db(num_records=16)
        assert sorted(layout_of(db)) == list(range(16))
        assert db.reshuffle is None

    def test_shuffle_moves_pages(self):
        db = oblivious_db(num_records=32, seed=3)
        assert layout_of(db) != list(range(32))

    def test_setup_epoch_runs_before_the_journal(self):
        """Nothing is sealed before setup ends, so the setup epoch is not
        journaled; the journal is attached for the first request."""
        from tests.helpers import RecordingJournal

        journal = RecordingJournal()
        db = oblivious_db(num_records=12, seed=4, journal=journal)
        assert journal.blobs == [] and db.engine.journal is journal
        db.query(1)
        assert [blob[:4] for blob in journal.blobs] == [b"RJN3"]

    def test_pages_intact_after_shuffle(self):
        db = oblivious_db(num_records=12, seed=4)
        db.consistency_check()
        for page_id in range(12):
            assert db.query(page_id) == bytes([page_id, page_id])

    def test_access_pattern_is_data_independent(self):
        """Two builds over different record bytes, same seed: identical
        trace shapes (the epoch's schedule is a function of n alone)."""

        def trace_of(fill):
            db = oblivious_db(num_records=10, seed=5, fill=fill)
            return [(e.op, e.location, e.count) for e in db.trace]

        assert trace_of(7) == trace_of(200)

    def test_every_compare_rewrites_both_frames(self):
        """After the identity-layout upload, the trace is the network's
        comparators then one sweep, batch by batch: every location a batch
        touches is read, then every one rewritten, one access each."""
        db = oblivious_db(num_records=8, seed=7)
        n = db.params.num_locations
        batch = inspect.signature(
            PirDatabase.begin_reshuffle).parameters["batch_size"].default
        units = list(batcher_network(n)) + list(range(n))
        expected = [(WRITE, 0, n)]
        for start in range(0, len(units), batch):
            touched = first_touch_order(units[start:start + batch])
            expected += [(READ, loc, 1) for loc in touched]
            expected += [(WRITE, loc, 1) for loc in touched]
        assert [(e.op, e.location, e.count) for e in db.trace] == expected
        assert len(units) == network_size(n) + n

    def test_next_epoch_repermutes(self):
        """Epoch 2 draws a key of its own: it moves the pages, rather than
        re-sorting them into the layout the setup epoch left."""
        db = oblivious_db(num_records=32, seed=3)
        setup_layout = layout_of(db)
        driver = db.begin_reshuffle()
        assert driver.epoch == 2
        driver.run()
        assert layout_of(db) != setup_layout
        db.consistency_check()
        db.close()

    def test_epoch_numbering_survives_snapshot(self, tmp_path):
        """A restored oblivious build continues at epoch 2 with a fresh key,
        even with no epoch active at save time (no reshuffle sidecar)."""
        db = oblivious_db(num_records=32, seed=3)
        save_snapshot(db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=3)
        setup_layout = layout_of(restored)
        assert setup_layout == layout_of(db)
        driver = restored.begin_reshuffle()
        assert driver.epoch == 2
        driver.run()
        assert layout_of(restored) != setup_layout
        restored.consistency_check()
        restored.close()


class CountingStore(StoreWrapper):
    """Records each verb call the reshuffler makes: (verb, ranges)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = []

    def read_ranges(self, ranges):
        self.calls.append(("read", list(ranges)))
        return super().read_ranges(ranges)

    def write_ranges(self, ranges, frames):
        self.calls.append(("write", list(ranges)))
        super().write_ranges(ranges, frames)


class TestEpochBatch:
    def test_step_is_one_read_and_one_write_call(self):
        """A batch reads its touched locations in one store call and
        writes them back in one — one ``(location, 1)`` range each."""
        stores = []

        def factory(num_locations, frame_size, timing, clock, trace):
            stores.append(CountingStore(
                DiskStore(num_locations, frame_size, timing, clock, trace)))
            return stores[0]

        db = PirDatabase.create([bytes([i]) for i in range(16)],
                                cache_capacity=4, block_size=4,
                                page_capacity=1, seed=9,
                                journal=MemoryJournal(),
                                disk_factory=factory)
        driver = db.begin_reshuffle(batch_size=8)
        stores[0].calls.clear()
        assert driver.step() == 8
        n = db.params.num_locations
        touched = first_touch_order(list(batcher_network(n))[:8])
        ranges = [(loc, 1) for loc in touched]
        assert len(ranges) > 2
        assert stores[0].calls == [("read", ranges), ("write", ranges)]
        db.close()
