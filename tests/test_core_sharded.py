"""Partitioned multi-coprocessor deployment."""

from __future__ import annotations

import pytest

from repro.baselines import make_records
from repro.core.sharded import ShardedPirDatabase
from repro.errors import ConfigurationError, PageDeletedError, PageNotFoundError
from repro.hardware.specs import IBM_4764, HardwareSpec
from repro.obs.tracer import Tracer

from tests.test_batch_fused import (
    MIXED_OPS,
    _sha256,
    golden_ops,
    run_per_op,
    run_windows_of_one,
)

RECORDS = make_records(60, 16)


def _sharded(num_shards=3, cover=True, seed=7, **options):
    defaults = dict(
        cache_capacity_per_shard=4,
        target_c=2.0,
        page_capacity=16,
        reserve_fraction=0.2,
    )
    defaults.update(options)
    return ShardedPirDatabase.create(
        RECORDS, num_shards, cover_traffic=cover, seed=seed, **defaults
    )


class TestRoutingAndCorrectness:
    def test_every_record_retrievable(self):
        db = _sharded()
        for global_id in range(60):
            assert db.query(global_id) == RECORDS[global_id]

    def test_updates_route_correctly(self):
        db = _sharded(seed=8)
        db.update(0, b"first shard")
        db.update(59, b"last shard")
        assert db.query(0) == b"first shard"
        assert db.query(59) == b"last shard"

    def test_delete_and_error(self):
        db = _sharded(seed=9)
        db.delete(25)
        with pytest.raises(PageDeletedError):
            db.query(25)

    def test_insert_returns_routable_global_id(self):
        db = _sharded(seed=10)
        ids = [db.insert(f"extra-{i}".encode()) for i in range(6)]
        assert len(set(ids)) == 6
        assert all(gid >= 60 for gid in ids)
        for i, gid in enumerate(ids):
            assert db.query(gid) == f"extra-{i}".encode()

    def test_unknown_global_id(self):
        db = _sharded(seed=11)
        with pytest.raises(PageNotFoundError):
            db.query(10**9)

    def test_consistency_across_shards(self):
        db = _sharded(seed=12)
        for step in range(40):
            db.query(step % 60)
        db.consistency_check()

    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedPirDatabase.create(RECORDS, 0, cache_capacity_per_shard=4)
        with pytest.raises(ConfigurationError):
            ShardedPirDatabase.create(RECORDS[:2], 3,
                                      cache_capacity_per_shard=4,
                                      page_capacity=16)


class TestCoverTraffic:
    def test_cover_traffic_equalises_shard_loads(self):
        db = _sharded(cover=True, seed=13)
        for _ in range(30):
            db.query(0)  # always shard 0
        counts = db.shard_request_counts()
        assert len(set(counts)) == 1, counts

    def test_without_cover_traffic_loads_leak(self):
        db = _sharded(cover=False, seed=14)
        for _ in range(30):
            db.query(0)
        counts = db.shard_request_counts()
        assert counts[0] == 30 and counts[1] == 0 and counts[2] == 0

    def test_total_requests_cost_of_cover(self):
        covered = _sharded(cover=True, seed=15)
        bare = _sharded(cover=False, seed=16)
        for db in (covered, bare):
            for step in range(10):
                db.query(step % 60)
        assert covered.total_requests() == 3 * bare.total_requests()

    def test_access_order_independent_of_target_shard(self):
        """The cross-shard issue order must not reveal the real shard.

        The old dispatcher ran the real operation first and the covers
        after it, so the *position* of each shard in the access sequence
        leaked the target.  Shards are driven inline, so recording
        per-shard entry observes exactly the order the façade issues.
        """
        orders = {}
        for target in (0, 25, 59):  # one id per shard
            db = _sharded(seed=22)
            observed = []

            def _instrument(index, shard):
                real_run_batch = shard.run_batch

                def run_batch(ops):
                    observed.append(index)
                    return real_run_batch(ops)

                shard.run_batch = run_batch

            for index, shard in enumerate(db.shards):
                _instrument(index, shard)
            db.query(target)
            orders[target] = tuple(observed)
        assert set(orders.values()) == {(0, 1, 2)}, orders

    def test_failed_operation_still_issues_covers(self):
        """Covers run even when the real op fails: loads stay equalised."""
        db = _sharded(seed=23)
        db.delete(10)
        before = db.shard_request_counts()
        with pytest.raises(PageNotFoundError):
            db.query(10**9)
        # Routing errors never reach the shards at all ...
        assert db.shard_request_counts() == before
        # ... but a real op refused *by its shard* (page 3 deleted behind
        # the routing table's back) has run in full, covers included,
        # before the façade raises.
        db.shards[0].delete(3)
        before = db.shard_request_counts()
        with pytest.raises(PageDeletedError, match="page 3 is deleted"):
            db.query(3)
        assert db.shard_request_counts() == [count + 1 for count in before]

    def test_shard_raising_still_drives_every_other_shard(self):
        """A shard that *raises* cannot leave cover traffic half-issued:
        the loop drives every remaining shard, then re-raises."""
        db = _sharded(seed=23)
        before = db.shard_request_counts()

        def broken(ops):
            raise PageNotFoundError("injected shard fault")

        db.shards[0].run_batch = broken
        for call in (lambda: db.query(0), lambda: db.run_batch(MIXED_OPS)):
            with pytest.raises(PageNotFoundError, match="injected"):
                call()
        # One per-op request plus one cover (or real op) per routed
        # MIXED_OPS slot reached shards 1 and 2; shard 0 never ran.
        after = db.shard_request_counts()
        assert after[0] == before[0]
        assert after[1] == after[2] > before[1] + 1


class TestRoutingStaleness:
    def test_deleted_inserted_id_does_not_alias_new_insert(self):
        """delete -> insert must not resurrect the old global id.

        The old routing table never removed entries on delete, so once a
        shard recycled the freed slot the stale global id silently aliased
        the *new* record.
        """
        db = _sharded(seed=24)
        old_id = db.insert(b"short-lived")
        db.delete(old_id)
        new_id = db.insert(b"replacement")
        assert db.query(new_id) == b"replacement"
        with pytest.raises(PageNotFoundError):
            db.query(old_id)

    def test_deleted_base_id_stays_dead_after_reinsert(self):
        db = _sharded(seed=25)
        db.delete(5)
        # Inserts may recycle shard 0's freed slot under a fresh id.
        fresh = [db.insert(f"recycled-{i}".encode()) for i in range(3)]
        with pytest.raises(PageDeletedError):
            db.query(5)
        for i, gid in enumerate(fresh):
            assert db.query(gid) == f"recycled-{i}".encode()

    def test_delete_is_idempotent_error(self):
        db = _sharded(seed=26)
        db.delete(7)
        with pytest.raises(PageDeletedError):
            db.delete(7)


class TestParallelExecution:
    """Parallelism is the hardware's: modelled on the shard clocks."""

    def test_elapsed_serial_sums_shard_clocks(self):
        with _sharded(seed=28, spec=HardwareSpec()) as db:
            for step in range(9):
                db.query(step % 60)
            assert db.elapsed_serial() == pytest.approx(
                sum(s.clock.now for s in db.shards)
            )
            # Cover traffic keeps shard loads equal, so the parallel
            # deployment's speedup approaches the shard count.
            assert db.elapsed_serial() / db.elapsed() > 2.0

    def test_cover_counters(self):
        with _sharded(seed=29) as db:
            db.query(0)
            db.query(42)
            db.run_batch(MIXED_OPS[:3])
        assert db.counters.get("batch.requests") == 3
        assert db.counters.get("batch.ops") == 5
        assert db.counters.get("covers") == 10

    def test_shared_tracer_records_every_shard(self):
        tracer = Tracer()
        db = _sharded(seed=30, tracer=tracer)
        db.query(1)
        requests = [span for span in tracer.spans if span.name == "request"]
        assert len(requests) == db.num_shards
        # Each shard's request ran on its own virtual clock.
        assert db.shard_request_counts() == [1] * db.num_shards

    def test_parallel_knob_is_gone(self):
        with pytest.raises(TypeError):
            _sharded(seed=31, parallel=True)


class TestAggregates:
    def test_achieved_c_is_worst_shard(self):
        db = _sharded(seed=17)
        assert db.achieved_c == max(s.achieved_c for s in db.shards)
        assert db.achieved_c <= 2.0 + 1e-9

    def test_storage_aggregates(self):
        db = _sharded(seed=18)
        report = db.storage_report()
        assert report.total == sum(s.storage_report().total for s in db.shards)

    def test_parallel_elapsed_is_max(self):
        db = _sharded(seed=19, spec=HardwareSpec())
        db.query(5)
        assert db.elapsed() == max(s.clock.now for s in db.shards)
        assert db.elapsed() > 0

    def test_smaller_shards_give_smaller_blocks(self):
        """Partitioning shrinks each instance's n, hence k and per-unit cost."""
        whole = make_records(60, 16)
        from repro.core.database import PirDatabase

        single = PirDatabase.create(whole, cache_capacity=4, target_c=2.0,
                                    page_capacity=16, seed=20)
        sharded = _sharded(seed=21)
        assert all(
            s.params.block_size <= single.params.block_size
            for s in sharded.shards
        )


# -- golden vectors -----------------------------------------------------------
#
# Generated at the parent of the commit that deleted the façade's
# per-op-with-covers path (`_with_cover` on `ShardExecutor`), by running the
# scenario below through its per-op methods.  They never change: a
# `run_batch` of one must keep reproducing that path's bytes.


def golden_sharded(cover, run=run_per_op):
    """~120 mixed ops (all five kinds, unknown ids, a double delete) on
    4 shards; digests of everything a shard or the server can observe."""
    with ShardedPirDatabase.create(
        make_records(40, 16), 4, cache_capacity_per_shard=4, target_c=2.0,
        page_capacity=16, reserve_fraction=0.25, cover_traffic=cover,
        spec=IBM_4764, seed=4242,
    ) as db:
        replies = run(db, MIXED_OPS + golden_ops(110, seed=4242))
        db.consistency_check()
        return {
            "replies": _sha256(
                (f"E:{type(reply).__name__}:{reply}" if
                 isinstance(reply, Exception) else repr(reply)).encode()
                for reply in replies
            ),
            "frames": _sha256(
                shard.disk.peek(location) for shard in db.shards
                for location in range(shard.disk.num_locations)
            ),
            "trace": _sha256(
                repr((index, e.op, e.location, e.count, e.request_index,
                      e.timestamp)).encode()
                for index, shard in enumerate(db.shards) for e in shard.trace
            ),
            "clocks": [repr(shard.clock.now) for shard in db.shards],
            "requests": db.shard_request_counts(),
            "next_rng_draws": [shard.cop.rng.randrange(2 ** 64)
                               for shard in db.shards],
        }


GOLDEN_REPLIES = "1faee5aabab56c4c39763b6a71fd5feaf7bcad4a46f469ca8800b13b598a6bd1"
GOLDEN_COVERED = {
    "replies": GOLDEN_REPLIES,
    "frames": "c423468c2703a9244d8504c6b6aea52c0a6a7b960087b55316cb9a551798b7f7",
    "trace": "4330e373c7901fb96c7784d12c55d72f529a7b86e18e0f673f8191f37ae9e3c5",
    "clocks": ["2.1740578699999853"] * 4,
    "requests": [108, 108, 108, 108],
    "next_rng_draws": [7569151943195558696, 8214630432297248512,
                       1990074642765196204, 994939464160764151],
}
GOLDEN_BARE = {
    "replies": GOLDEN_REPLIES,
    "frames": "a248b38d944219d5cfbeadf9d17cc789a27e5f2a310ec57f7d841d9d76a2d0c1",
    "trace": "a8b703d3858568bc08d4f1bea72691c094d8492cc389e7080ac764a9ea110902",
    "clocks": ["0.7079411999999987", "0.5874384599999991",
               "0.3866005599999998", "0.5071032999999994"],
    "requests": [35, 29, 19, 25],
    "next_rng_draws": [15220637841474817404, 13173027131334539502,
                       10064811304861665800, 11063210270265910900],
}


class TestGoldenVectors:
    """Per-op calls and ``run_batch([op])`` reproduce the deleted path."""

    @pytest.mark.parametrize("run", [run_per_op, run_windows_of_one])
    def test_cover_traffic_on(self, run):
        assert golden_sharded(True, run) == GOLDEN_COVERED

    @pytest.mark.parametrize("run", [run_per_op, run_windows_of_one])
    def test_cover_traffic_off(self, run):
        assert golden_sharded(False, run) == GOLDEN_BARE
