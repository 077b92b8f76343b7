"""Cross-module integration scenarios."""

from __future__ import annotations

import pytest

from repro import PirDatabase
from repro.analysis.adversary import TrackingAdversary
from repro.analysis.costmodel import AnalyticalCostModel
from repro.baselines import CApproxScheme, make_records, measure_latencies
from repro.crypto.rng import SecureRandom
from repro.errors import PageDeletedError
from repro.hardware.specs import HardwareSpec
from repro.index.private_index import PrivateKeyValueStore
from repro.storage.trace import shapes_identical
from repro.twoparty import TwoPartySession
from repro.workload import zipf_stream

from tests.helpers import make_db


class TestThreePartyEndToEnd:
    def test_oblivious_setup_then_long_workload(self):
        records = make_records(24, 16)
        db = PirDatabase.create(
            records, cache_capacity=4, page_capacity=16, block_size=4,
            setup_mode="oblivious", seed=61,
        )
        rng = SecureRandom(62)
        for page_id in zipf_stream(24, 150, rng, theta=0.9):
            assert db.query(page_id) == records[page_id]
        db.consistency_check()
        assert shapes_identical(db.trace, 0)

    def test_measured_time_tracks_eq8_at_scale(self):
        """Executed engine time equals the analytical model across shapes."""
        model = AnalyticalCostModel()
        for block_size, cache in ((2, 4), (6, 8), (12, 4)):
            db = make_db(num_records=36, cache_capacity=cache,
                         page_capacity=16, block_size=block_size,
                         spec=HardwareSpec(), seed=63)
            start = db.clock.now
            db.query(0)
            measured = db.clock.now - start
            expected = model.query_time(block_size, db.cop.frame_size)
            assert measured == pytest.approx(expected, rel=1e-9)

    def test_adversary_on_skewed_workload(self):
        """Even a maximally skewed workload leaves the tracking adversary
        inside the c envelope once a scan completes."""
        db = make_db(num_records=40, reserve_fraction=0.2, seed=64,
                     cipher_backend="null")
        params = db.params
        adversary = TrackingAdversary(
            params.num_locations, params.block_size, params.cache_capacity
        )
        for step in range(8 * params.num_blocks):
            db.query(0 if step % 3 else 1)  # two hot pages only
            outcome = db.engine.last_outcome
            adversary.observe_request(outcome.block_start, outcome.extra_location)
        assert adversary.posterior_ratio() <= params.achieved_c * 1.05


class TestTwoPartyVersusLocal:
    def test_identical_results_with_identical_seed(self):
        """The engine's logic is deployment-independent: same records, same
        operation stream, both deployments return the same payloads."""
        records = make_records(30, 16)
        local = PirDatabase.create(records, cache_capacity=6, block_size=5,
                                   page_capacity=16, seed=71)
        remote = TwoPartySession.create(records, cache_capacity=6, block_size=5,
                                        page_capacity=16, seed=72).owner
        stream = zipf_stream(30, 60, SecureRandom(73))
        for page_id in stream:
            assert local.query(page_id) == remote.query(page_id) == records[page_id]

    def test_network_dominates_two_party_latency(self):
        records = make_records(30, 16)
        session = TwoPartySession.create(
            records, cache_capacity=6, block_size=5, page_capacity=16,
            seed=74, rtt=0.05, bandwidth=2.33e6,
        )
        series = measure_latencies(CApproxScheme(session.owner), [1, 2, 3, 4])
        k = session.owner.params.block_size
        frame = session.owner.cop.frame_size
        transfer = 2 * (k + 1) * frame / 2.33e6
        # RTT (2 round trips x 50 ms) + transfer should account for almost
        # all of the latency at this scale.
        assert series.mean() >= 0.1 + transfer


class TestPrivateIndexOverTwoDeployments:
    def test_btree_on_pir_database_under_updates(self):
        items = [(i, f"rec{i}".encode()) for i in range(100)]
        store = PrivateKeyValueStore.create(
            items, cache_capacity=8, page_capacity=128, seed=75
        )
        # Index pages can be modified like any page; prove the plumbing by
        # deleting an unrelated reserve page and re-querying the index.
        assert store.get(42) == b"rec42"
        assert store.get(41) == b"rec41"
        assert store.retrievals == 2 * store.height

    def test_deleted_page_error_propagates_through_index(self):
        items = [(i, bytes(4)) for i in range(60)]
        store = PrivateKeyValueStore.create(
            items, cache_capacity=8, page_capacity=128, seed=76
        )
        store.database.delete(store.root_page_id)
        with pytest.raises(PageDeletedError):
            store.get(0)
