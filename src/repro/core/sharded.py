"""Sharded deployment across multiple secure coprocessors.

§5 observes that larger databases need more secure memory than one IBM 4764
provides and suggests deploying several units.  Two architectures follow:

* **pooled** — one logical engine whose cache/pageMap span all units'
  memory; that is what the analytical model's ``units_required`` prices,
  and it needs no new code (the parameters just use the bigger m).
* **partitioned** (this module) — each unit runs an *independent*
  c-approximate PIR instance over a contiguous slice of the database.
  Partitioning multiplies throughput (shards operate in parallel) and
  shrinks each instance's n, but the request's *shard id* becomes visible
  to the server, leaking coarse popularity at shard granularity.

:class:`ShardedPirDatabase` therefore issues **cover traffic** by default:
every operation drives one real request on the owning shard and a dummy
request (``touch``) on every other shard, restoring indistinguishability at
the cost of the parallel-hardware latency max instead of a single shard's.
Setting ``cover_traffic=False`` exposes the trade-off for the ablation
benchmark.

Two properties of the cover traffic matter for privacy and cost:

* **Order independence.**  The per-shard streams of one logical request
  are always issued in canonical shard-index order, never "real shard
  first" — an observer of the cross-shard access *sequence* must learn
  nothing about which shard served the real operation (the old
  target-first ordering leaked it exactly).
* **Hardware parallelism is modelled, not threaded.**  Each shard owns its
  clock, RNG and engine, so the units of a real deployment would work
  side by side: :meth:`ShardedPirDatabase.elapsed` is the max over shard
  clocks, :meth:`~ShardedPirDatabase.elapsed_serial` their sum.  In this
  process the shards are driven one after the other under a single façade
  lock (a thread pool measured *slower* than the loop under the GIL), so
  any number of client threads may share one instance.

There is one request path: ``query/update/insert/delete/touch`` are a
:meth:`~ShardedPirDatabase.run_batch` of one.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from .database import PirDatabase
from .engine import BatchOp, run_one
from ..errors import (
    ConfigurationError,
    PageDeletedError,
    PageNotFoundError,
    ReproError,
)
from ..hardware.coprocessor import SecureStorageReport
from ..hardware.specs import HardwareSpec
from ..obs.registry import registry_or_private

__all__ = ["ShardedPirDatabase"]


def _globalise_error(exc: Exception, local_id: int,
                     global_id: int) -> Exception:
    """Rewrite a shard-level error so its message names the global id.

    Shards speak local page ids; callers only ever see global ones.
    Errors whose message does not mention the local id pass through
    unchanged.
    """
    text = str(exc)
    marker = f"page {local_id}"
    if marker not in text:
        return exc
    return type(exc)(text.replace(marker, f"page {global_id}", 1))


class ShardedPirDatabase:
    """A database partitioned over independent coprocessor instances."""

    def __init__(self, shards: List[PirDatabase], records_per_shard: int,
                 num_records: int, cover_traffic: bool, metrics=None):
        self.shards = shards
        self._per_shard = records_per_shard
        self.num_records = num_records
        self.cover_traffic = cover_traffic
        self.counters = registry_or_private(metrics).counter_view("sharded.")
        # The one lock: a request holds it from routing prescan to routing
        # commit, so concurrent client threads see the routing table and
        # every shard engine (single-threaded by contract) one at a time.
        self._lock = threading.Lock()
        # Inserted pages get fresh global ids above the record space; the
        # routing table lives with the rest of the trusted metadata.
        self._inserted: Dict[int, Tuple[int, int]] = {}
        self._next_inserted_id = num_records
        # Deleted *base-range* ids stay dead forever: their disk slot may
        # be recycled by a later insert under a fresh global id, and
        # without the tombstone the stale id would silently alias the new
        # record (same bug class as stale ``_inserted`` entries).
        self._deleted_base: set = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        num_shards: int,
        cache_capacity_per_shard: int,
        target_c: float = 2.0,
        page_capacity: int = 1024,
        reserve_fraction: float = 0.0,
        cover_traffic: bool = True,
        spec: Optional[HardwareSpec] = None,
        seed: Optional[int] = None,
        metrics=None,
        **database_options,
    ) -> "ShardedPirDatabase":
        """Partition ``records`` into contiguous shards, one engine each.

        ``metrics`` (a :class:`~repro.obs.registry.MetricsRegistry`,
        private when None) is shared by the façade's ``sharded.*`` counters
        and every shard, labelled ``shard=<index>`` per shard;
        ``database_options`` go to every :meth:`PirDatabase.create` — a
        shared ``tracer`` records the spans of all shards, in issue order.
        """
        metrics = registry_or_private(metrics)
        if num_shards <= 0:
            raise ConfigurationError("need at least one shard")
        if len(records) < num_shards:
            raise ConfigurationError("fewer records than shards")
        per_shard = (len(records) + num_shards - 1) // num_shards
        shards: List[PirDatabase] = []
        for index in range(num_shards):
            slice_ = records[index * per_shard : (index + 1) * per_shard]
            if not slice_:
                raise ConfigurationError(
                    "empty shard; lower num_shards for this record count"
                )
            shards.append(
                PirDatabase.create(
                    slice_,
                    cache_capacity=cache_capacity_per_shard,
                    target_c=target_c,
                    page_capacity=page_capacity,
                    reserve_fraction=reserve_fraction,
                    spec=spec,
                    seed=None if seed is None else seed * 1000 + index,
                    metrics=metrics.labelled(shard=index),
                    **database_options,
                )
            )
        return cls(shards, per_shard, len(records), cover_traffic,
                   metrics=metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close each shard's store (idempotent)."""
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedPirDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def query(self, global_id: int) -> bytes:
        return run_one(self, BatchOp("query", page_id=global_id))

    def update(self, global_id: int, payload: bytes) -> None:
        run_one(self, BatchOp("update", page_id=global_id, payload=payload))

    def delete(self, global_id: int) -> None:
        run_one(self, BatchOp("delete", page_id=global_id))

    def insert(self, payload: bytes) -> int:
        """Insert into the emptiest shard; returns a fresh global id."""
        return run_one(self, BatchOp("insert", payload=payload))

    def touch(self) -> None:
        """Dummy request to keep the shards' reshuffles mixing.

        With cover traffic every shard advances one request (matching the
        uniform streams real operations produce); without it, shard 0
        hosts the single dummy.
        """
        run_one(self, BatchOp("touch"))

    def run_batch(self, ops: Sequence[BatchOp]) -> List[object]:
        """Execute ``ops`` across shards: one windowed disk pass per shard.

        The only request path.  A routing prescan resolves every op's
        owning shard (recording routing failures in their slots without
        consuming requests), then each shard receives *one*
        :meth:`PirDatabase.run_batch` call carrying its real ops plus one
        ``touch`` cover per foreign real op — per-shard streams stay
        equal-length and are issued in canonical shard order, so the
        cross-shard sequence leaks nothing about targets, and each shard
        fuses its whole stream into round-robin windows.  Every shard is
        driven even when one raises (cover traffic is never left
        half-issued); the first exception in shard order is re-raised
        afterwards.  Inserts are routed to the emptiest shard by
        *simulated* free counts (the prescan replays the batch's
        deletes/inserts against the starting counts; which shard hosts a
        page is placement, not content).  Global ids for successful
        inserts are allocated in batch order; successful deletes
        tombstone their global id only after the shard commits.  Returns
        one result per op, positionally, as :meth:`PirDatabase.run_batch`
        does — failed slots hold the exception, naming global ids.
        """
        with self._lock:
            results: List[object] = [None] * len(ops)
            free = [shard.cop.state.free_count for shard in self.shards]
            # The prescan replays the batch's routing-table mutations: a
            # delete must tombstone its global id *for the rest of the
            # batch*, or a later op could silently alias onto an insert
            # that recycles the freed local slot — the exact stale-alias
            # bug the tombstone set prevents across batches.
            deleted_in_batch: set = set()
            # (slot, owning shard or None for a touch, global id or -1,
            # the op in the shard's local ids)
            routed: List[Tuple[int, Optional[int], int, BatchOp]] = []
            for slot, op in enumerate(ops):
                try:
                    if op.kind == "touch":
                        routed.append((slot, None, -1, op))
                    elif op.kind == "insert":
                        best = max(range(self.num_shards),
                                   key=lambda index: free[index])
                        free[best] -= 1
                        routed.append((slot, best, -1, op))
                    else:
                        shard_index, local = self._route(op.page_id,
                                                         deleted_in_batch)
                        if op.kind == "delete":
                            free[shard_index] += 1
                            deleted_in_batch.add(op.page_id)
                        routed.append((
                            slot, shard_index, op.page_id,
                            BatchOp(op.kind, page_id=local,
                                    payload=op.payload),
                        ))
                except ReproError as exc:
                    results[slot] = exc

            if not routed:
                return results
            self.counters.increment("batch.requests")
            self.counters.increment("batch.ops", len(routed))

            # Per-shard (slot or None for a cover, op) streams.  A touch is
            # owned by shard 0 — with covers disabled it still needs one
            # real dummy request somewhere.
            per_shard: List[List[Tuple[Optional[int], BatchOp]]] = [
                [] for _ in self.shards
            ]
            cover = BatchOp("touch")
            for slot, owner, _, local_op in routed:
                for index, stream in enumerate(per_shard):
                    if index == (owner or 0):
                        stream.append((slot, local_op))
                    elif self.cover_traffic:
                        stream.append((None, cover))
            if self.cover_traffic and self.num_shards > 1:
                self.counters.increment(
                    "covers", len(routed) * (self.num_shards - 1)
                )

            first_error: Optional[Exception] = None
            for shard, stream in zip(self.shards, per_shard):
                if not stream:
                    continue
                try:
                    replies = shard.run_batch([op for _, op in stream])
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = exc
                    continue
                for (slot, _), reply in zip(stream, replies):
                    if slot is not None:
                        results[slot] = reply
            if first_error is not None:
                raise first_error

            for slot, owner, global_id, local_op in routed:
                reply = results[slot]
                if isinstance(reply, Exception):
                    # Shard-level errors name local ids; callers know global.
                    if global_id >= 0:
                        results[slot] = _globalise_error(
                            reply, local_op.page_id, global_id
                        )
                elif local_op.kind == "insert":
                    new_id = self._next_inserted_id
                    self._next_inserted_id += 1
                    self._inserted[new_id] = (owner, reply)
                    results[slot] = new_id
                elif local_op.kind == "delete":
                    if global_id < self.num_records:
                        self._deleted_base.add(global_id)
                    else:
                        self._inserted.pop(global_id, None)
            return results

    def _route(self, global_id: int,
               deleted_in_batch: set) -> Tuple[int, int]:
        """Global id -> (shard index, local page id); lock held.

        Ids in ``deleted_in_batch`` route as they will once the running
        batch has committed its deletes.
        """
        if 0 <= global_id < self.num_records:
            if (global_id in self._deleted_base
                    or global_id in deleted_in_batch):
                raise PageDeletedError(f"page {global_id} is deleted")
            return global_id // self._per_shard, global_id % self._per_shard
        if global_id in self._inserted and global_id not in deleted_in_batch:
            return self._inserted[global_id]
        raise PageNotFoundError(f"unknown global page id {global_id}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def achieved_c(self) -> float:
        """Worst (largest) per-shard privacy level."""
        return max(shard.achieved_c for shard in self.shards)

    def elapsed(self) -> float:
        """Simulated time so far, assuming shards run on parallel hardware."""
        return max(shard.clock.now for shard in self.shards)

    def elapsed_serial(self) -> float:
        """Simulated time if every shard operation ran on one unit in turn.

        The sum of the per-shard clocks: what the same request stream
        would cost without parallel hardware.  ``elapsed_serial() /
        elapsed()`` is the deterministic speedup the partitioned
        deployment buys — about the shard count under cover traffic.
        """
        return sum(shard.clock.now for shard in self.shards)

    def total_requests(self) -> int:
        return sum(shard.engine.request_count for shard in self.shards)

    def storage_report(self) -> SecureStorageReport:
        """Aggregate secure-memory footprint across all units."""
        reports = [shard.storage_report() for shard in self.shards]
        return SecureStorageReport(
            page_map=sum(r.page_map for r in reports),
            page_cache=sum(r.page_cache for r in reports),
            server_block=sum(r.server_block for r in reports),
        )

    def shard_request_counts(self) -> List[int]:
        """Per-shard request totals — equal under cover traffic."""
        return [shard.engine.request_count for shard in self.shards]

    def consistency_check(self) -> None:
        for shard in self.shards:
            shard.consistency_check()
