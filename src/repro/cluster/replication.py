"""Sealed write replication between cluster backends (DESIGN.md §13).

PR 6's cluster tier made reads available across backend failures but let
writes land on exactly one member, so replicas diverged from the
bootstrap snapshot onward.  This module closes that gap with a sealed,
sequence-numbered logical replication stream:

* :class:`ReplicationLog` — the *origin* side.  Every request the
  database serves emits one fixed-size record (``RPL1`` magic, encoded
  with the same :class:`~repro.storage.frames.RecordCursor` idiom as the
  intent-record headers) that is sealed by the coprocessor under the
  replica-shared master key before the host ever sees it.  Reads emit
  ``noop`` *cover records* by default, so the stream length and record
  sizes reveal only the request count — which connection-level traffic
  analysis already reveals — and never the read/write mix.  Setting
  ``cover_traffic=False`` drops the covers: cheaper (peers do no work
  for reads) but the host learns which requests were writes.  This is
  the same privacy-vs-cost dial the paper turns with ``c``.

* :class:`ReplicationApplier` — the *peer* side.  Applies records
  **logically** through the engine (modify/delete/touch), never by
  replaying frames: replicas deliberately have independent RNG lineages,
  so their physical layouts diverge on every request and byte-level
  replay would be unsound.  Convergence is defined over the trusted
  *content* (page id → liveness + payload, see
  :meth:`~repro.core.database.PirDatabase.content_digest`), which is
  exactly what clients can observe.  Sequence tracking makes every
  record idempotent: only the record right after the applied mark
  applies, so a duplicate delivery (netchaos duplicate plans, a
  retransmission after a lost ack) applies exactly once, and a record
  the peer cannot authenticate applies nothing and leaves the mark
  where it was.

* :meth:`ReplicationLog.stream` — one coroutine per peer, run as a task
  on the member's serving loop, that streams the log over the
  ``net.framing`` REPL envelope.  Its handshake *is* the catch-up
  protocol: REPL_QUERY asks the peer how far it has applied this
  origin's stream, and streaming resumes from that point out of the
  log's backlog — which is also how a restarted backend converges
  (``load_snapshot`` + journal roll-forward locally, then backlog replay
  from each peer for everything it missed while down).  The answer is a
  *stream mark* of the peer's sealed trusted state
  (:meth:`~repro.hardware.trusted.TrustedState.stream_mark`), so a
  snapshot alone — of the member itself, or the one a replica was
  bootstrapped from — says where each stream resumes.

* :meth:`ReplicationLog.wait_replicated` — the semi-sync barrier, a
  coroutine the member's serve awaits on that same loop.  The stream
  tasks wake it as they record a peer's ack or lose the peer, so no wait
  in this module blocks a thread.

Trust boundary: the router and any network observer handle only sealed
record bodies; plaintext sequence numbers and origin addresses are the
only cleartext, and both are request-count/topology metadata the host
already has.  Apply-side conflict policy is last-writer-wins per page in
per-origin arrival order; concurrent inserts on *different* members can
collide on the deterministically chosen free page id, so deployments
keep a single writer per page (the drills write disjoint pages).

:meth:`ReplicationLog.compact` can bound the backlog: once a snapshot
covers a prefix of the stream (every peer either acked it or can be
re-imaged from the snapshot), the covered records are dropped from memory
and the durable ``repl-*.log`` file is atomically rewritten without them.
Nothing calls it outside the tests yet, so a deployment's backlog, in
memory and in its ``repl-*.log``, grows with every request.
A peer that later asks for a compacted sequence gets a
:class:`~repro.errors.StorageError` instead of silent divergence — the
signal that it must bootstrap from the snapshot, not the stream.  The
origin's own stream mark is its emitted high-water mark: a log whose
backlog ends below it (a truncated or deleted file, or an in-memory log
over restored state) raises :class:`~repro.errors.RollbackError` rather
than reissue a sequence number a peer may already hold.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import struct
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.journal import load_appended
from ..errors import (
    ConfigurationError,
    PageNotFoundError,
    ProtocolError,
    ReproError,
    RollbackError,
    StorageError,
)
from ..loopthread import LoopWaiters
from ..net.endpoint import exchange, open_stream
from ..net.framing import ReplAck, ReplQuery, ReplRecord, ReplState
from ..obs.registry import registry_or_private
from ..storage.frames import RecordCursor

__all__ = [
    "KIND_NOOP",
    "KIND_WRITE",
    "KIND_DELETE",
    "ReplicationRecord",
    "ReplicationLog",
    "ReplicationApplier",
    "encode_record",
    "decode_record",
    "record_size",
]

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

_MAGIC = b"RPL1"
_MAGIC_LEN = len(_MAGIC)

KIND_NOOP = 0
KIND_WRITE = 1
KIND_DELETE = 2

_KIND_BY_NAME = {"noop": KIND_NOOP, "write": KIND_WRITE, "delete": KIND_DELETE}

#: Durable backlog entry header: u64 sequence, u32 sealed-record length.
#: A file :meth:`ReplicationLog.compact` rewrote starts with an empty entry
#: at the compaction base.
_BACKLOG_HEADER = struct.Struct(">QI")

# A streamer's deadlines (dial, and each answer from the peer) and its
# pauses (before re-dialling after a fault, before retransmitting after a
# stale ack).
_CONNECT_TIMEOUT = 2.0
_IO_TIMEOUT = 5.0
_RETRY_INTERVAL = 0.2
_STALE_ACK_BACKOFF = 0.05


@dataclass(frozen=True)
class ReplicationRecord:
    """One decoded logical operation from a replication stream."""

    seq: int
    kind: int
    page_id: int
    payload: bytes


def record_size(cop) -> int:
    """Plaintext size every record is padded to before sealing.

    Fixed per deployment (header + one max-size page payload), so sealed
    records are indistinguishable regardless of operation kind.
    """
    return _MAGIC_LEN + _U64.size + 1 + _U64.size + _U32.size + cop.page_capacity


def encode_record(cop, seq: int, kind: int, page_id: int, payload: bytes) -> bytes:
    """Encode, pad, and seal one replication record.

    The sequence number is bound *inside* the sealed body as well as sent
    in the plaintext envelope, so a host that splices record bodies onto
    other sequence numbers is detected at apply time.
    """
    if kind not in (KIND_NOOP, KIND_WRITE, KIND_DELETE):
        raise ConfigurationError(f"unknown replication record kind {kind}")
    limit = cop.page_capacity
    if len(payload) > limit:
        raise StorageError(
            f"replication payload of {len(payload)} bytes exceeds the "
            f"{limit}-byte page bound"
        )
    plain = b"".join([
        _MAGIC,
        _U64.pack(seq),
        bytes([kind]),
        _U64.pack(page_id),
        _U32.pack(len(payload)),
        payload,
    ])
    padded = plain + b"\x00" * (record_size(cop) - len(plain))
    return cop.seal_record(padded)


def decode_record(cop, sealed: bytes) -> ReplicationRecord:
    """Unseal and decode one replication record; rejects any tampering."""
    blob = cop.unseal_record(sealed)
    if bytes(blob[:_MAGIC_LEN]) != _MAGIC:
        raise StorageError("replication record has a bad magic number")
    cursor = RecordCursor(blob, offset=_MAGIC_LEN)
    seq = cursor.take(_U64)
    kind = cursor.take_byte()
    if kind not in (KIND_NOOP, KIND_WRITE, KIND_DELETE):
        raise StorageError(f"replication record has unknown kind {kind}")
    page_id = cursor.take(_U64)
    payload = cursor.take_bytes(cursor.take(_U32))
    cursor.expect_padding("replication record")
    return ReplicationRecord(seq, kind, page_id, payload)


class _PeerState:
    __slots__ = ("connected", "acked")

    def __init__(self) -> None:
        self.connected = False
        self.acked = 0


class ReplicationLog:
    """Origin-side sealed record stream with per-peer ack tracking.

    ``emit`` is called by the database as it serves a request — on a
    served member that is the server's loop thread — and never blocks on
    the network: it wakes this log's streamers (:meth:`stream`) on their
    loop.  The server separately awaits :meth:`wait_replicated` on that
    loop before acknowledging a client, which is what makes an
    acknowledged write survive the origin's death (semi-synchronous
    replication); the streamers' acks and disconnects, recorded on the
    same loop, wake it.  Peers that are disconnected are not waited on —
    they catch up from the backlog when they return.  A database driven
    directly (in-process callers, tests) emits from its caller's thread,
    so one lock guards the backlog and the peer table, and the streamers'
    wake-up is thread-safe.
    """

    def __init__(
        self,
        cop,
        origin: str,
        cover_traffic: bool = True,
        path: Optional[str] = None,
        wait_timeout: float = 5.0,
        metrics=None,
    ):
        if not origin:
            raise ConfigurationError("replication origin must be non-empty")
        self.cop = cop
        self.origin = origin
        self.cover_traffic = cover_traffic
        self.wait_timeout = wait_timeout
        self.counters = registry_or_private(metrics).counter_view("repl.log.")
        self._lock = threading.Lock()
        # Sequences 1.._base were compacted away; index i holds sequence
        # _base + i + 1.
        self._base = 0
        self._records: List[bytes] = []
        self._peers: Dict[str, _PeerState] = {}
        # peer address -> the wake-up of the one streamer serving it.
        self._wakers: Dict[str, Callable[[], None]] = {}
        # Barriers in wait_replicated, woken by acks and disconnects.
        self._barriers = LoopWaiters()
        self._path = path
        self._file = None
        if path is not None:
            self._load(path)
        emitted = cop.state.stream_mark(origin)
        if self._base + len(self._records) < emitted:
            raise RollbackError(
                f"replication backlog of {origin!r} ends at seq "
                f"{self._base + len(self._records)}, below the sealed emitted "
                f"mark {emitted}; refusing to reissue sequence numbers"
            )
        if path is not None:
            self._open()

    def _open(self) -> None:
        """Open the backlog file for appends; a log dropped without
        :meth:`close` releases it at collection."""
        self._file = open(self._path, "ab")
        self._closer = weakref.finalize(self, self._file.close)

    def _load(self, path: str) -> None:
        """Reload the durable backlog, discarding any torn tail.

        The file may start past sequence 1: a previous :meth:`compact`
        rewrote it behind an empty entry that names the base.
        """
        kept = 0
        for end, (seq, _), sealed in load_appended(
                path, _BACKLOG_HEADER, lambda seq, length: length):
            if not kept:
                self._base = seq - 1 if sealed else seq
            elif not sealed or seq != self._base + len(self._records) + 1:
                os.truncate(path, kept)  # out-of-sequence tail
                break
            if sealed:
                self._records.append(sealed)
            kept = end

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._base + len(self._records)

    @property
    def compacted_seq(self) -> int:
        """Highest sequence dropped by compaction (0 = nothing dropped)."""
        with self._lock:
            return self._base

    def emit(self, kind: str, page_id: int = 0, payload: bytes = b"") -> int:
        """Seal and append one record; returns the sequence it received.

        A ``noop`` emit with cover traffic disabled appends nothing and
        returns the current high-water mark.
        """
        kind_code = _KIND_BY_NAME[kind]
        with self._lock:
            if kind_code == KIND_NOOP and not self.cover_traffic:
                return self._base + len(self._records)
            seq = self._base + len(self._records) + 1
            sealed = encode_record(self.cop, seq, kind_code, page_id, payload)
            if self._file is not None:
                self._file.write(_BACKLOG_HEADER.pack(seq, len(sealed)))
                self._file.write(sealed)
                self._file.flush()
            self._records.append(sealed)
            self.cop.state.advance_stream(self.origin, seq)
            self.counters.increment("emitted")
            for wake in self._wakers.values():
                wake()
            return seq

    # -- peer tracking -------------------------------------------------------

    def mark_connected(self, address: str) -> None:
        with self._lock:
            self._peers.setdefault(address, _PeerState()).connected = True

    def mark_disconnected(self, address: str) -> None:
        with self._lock:
            peer = self._peers.get(address)
            if peer is not None:
                peer.connected = False
        # A dead peer is no longer waited on.
        self._barriers.wake()

    def record_ack(self, address: str, seq: int) -> None:
        with self._lock:
            peer = self._peers.setdefault(address, _PeerState())
            if seq > peer.acked:
                peer.acked = seq
            self.counters.increment("acks")
        self._barriers.wake()

    def connected_peers(self) -> List[str]:
        with self._lock:
            return [a for a, p in self._peers.items() if p.connected]

    # -- consumption ---------------------------------------------------------

    def _check_compacted(self, after_seq: int) -> None:
        """Lock held.  A consumer behind the compaction horizon cannot be
        served from the stream — it must re-image from the covering
        snapshot — and silently skipping records would diverge it."""
        if after_seq < self._base:
            self.counters.increment("too_stale")
            raise StorageError(
                f"replication backlog was compacted through seq {self._base}; "
                f"a peer at seq {after_seq} must bootstrap from the snapshot"
            )

    def next_record(self, after_seq: int) -> Optional[Tuple[int, bytes]]:
        """The record following ``after_seq``, or None if not emitted yet."""
        with self._lock:
            self._check_compacted(after_seq)
            index = after_seq - self._base
            if index < len(self._records):
                return after_seq + 1, self._records[index]
            return None

    def records_since(self, after_seq: int) -> List[Tuple[int, bytes]]:
        with self._lock:
            self._check_compacted(after_seq)
            return [
                (after_seq + 1 + index, sealed)
                for index, sealed in enumerate(
                    self._records[after_seq - self._base:]
                )
            ]

    async def stream(self, peer_address: str) -> None:
        """Stream this log to one peer until cancelled.

        Runs as a task on the member's serving loop, one per peer.  Each
        connection opens with REPL_QUERY; the peer's REPL_STATE answer,
        its applied mark for this origin, is where streaming resumes out
        of the backlog — the whole catch-up protocol, for a peer that was
        down and for a streamer that lost its connection mid-record.  Then
        one REPL_RECORD at a time, ``acked + 1``, each awaiting its
        REPL_ACK: a stale ack (the peer is draining, or could not
        authenticate the record) is retransmitted after a backoff, and a
        transport or protocol fault re-dials.  With nothing to send it
        waits for :meth:`emit` to wake it.
        """
        loop = asyncio.get_running_loop()
        # Made here, on the serving loop (Python 3.9 binds it at creation).
        grown = asyncio.Event()

        def wake() -> None:  # from emit, on any thread (the loop if served)
            with contextlib.suppress(RuntimeError):  # the loop has closed
                loop.call_soon_threadsafe(grown.set)

        host, _, port = peer_address.rpartition(":")
        with self._lock:
            self._wakers[peer_address] = wake
        writer = None
        try:
            while True:
                try:
                    if writer is None:
                        reader, writer = await open_stream(
                            host, int(port), _CONNECT_TIMEOUT)
                        answer = await exchange(reader, writer,
                                                ReplQuery(self.origin),
                                                _IO_TIMEOUT)
                        if (not isinstance(answer, ReplState)
                                or answer.origin != self.origin):
                            raise ProtocolError(
                                f"replication handshake expected REPL_STATE "
                                f"for {self.origin!r}, got "
                                f"{type(answer).__name__}"
                            )
                        acked = answer.applied
                        self.record_ack(peer_address, acked)
                        self.mark_connected(peer_address)
                    grown.clear()
                    item = self.next_record(acked)
                    if item is None:
                        await grown.wait()
                        continue
                    seq, sealed = item
                    reply = await exchange(reader, writer,
                                           ReplRecord(self.origin, seq, sealed),
                                           _IO_TIMEOUT)
                    if (not isinstance(reply, ReplAck)
                            or reply.origin != self.origin):
                        raise ProtocolError(
                            "replication stream expected REPL_ACK")
                    if reply.seq >= seq:
                        acked = reply.seq
                        self.record_ack(peer_address, acked)
                    else:
                        await asyncio.sleep(_STALE_ACK_BACKOFF)
                except ReproError:
                    self.mark_disconnected(peer_address)
                    if writer is not None:
                        writer.close()
                        writer = None
                    await asyncio.sleep(_RETRY_INTERVAL)
        finally:
            with self._lock:
                # A killed loop may finalise this task after a restarted
                # server's streamer took the peer over: leave that one be.
                mine = self._wakers.get(peer_address) is wake
                if mine:
                    del self._wakers[peer_address]
            if mine:
                self.mark_disconnected(peer_address)
            if writer is not None:
                writer.close()

    # -- compaction ----------------------------------------------------------

    def compact(self, up_to_seq: int) -> int:
        """Drop records with seq <= ``up_to_seq``; returns how many.

        Call once a snapshot durably covers those sequences (e.g. after
        ``save_snapshot`` of every peer, whose sealed state holds its stream
        marks): the snapshot, not the stream, is then the catch-up path for
        anything older.  The durable backlog file is atomically rewritten
        without the dropped prefix, behind an empty entry at the new base,
        so a restart reloads only what memory holds.  Compacting past
        ``last_seq`` clamps; compacting below the current base is a no-op.
        """
        with self._lock:
            up_to_seq = min(up_to_seq, self._base + len(self._records))
            dropped = up_to_seq - self._base
            if dropped <= 0:
                return 0
            self._records = self._records[dropped:]
            self._base = up_to_seq
            if self._path is not None:
                if self._file is not None:
                    self._closer()
                tmp = self._path + ".tmp"
                with open(tmp, "wb") as handle:
                    handle.write(_BACKLOG_HEADER.pack(self._base, 0))
                    for index, sealed in enumerate(self._records):
                        handle.write(_BACKLOG_HEADER.pack(
                            self._base + index + 1, len(sealed)
                        ))
                        handle.write(sealed)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self._path)
                self._open()
            self.counters.increment("compacted", dropped)
            return dropped

    async def wait_replicated(self, seq: int,
                              timeout: Optional[float] = None) -> bool:
        """Wait, on the serving loop, until every *connected* peer has
        acked ``seq``.

        Woken by :meth:`record_ack` and :meth:`mark_disconnected`, which
        the streamers call on that loop.  Returns False on timeout
        (counted): the reply is still sent — the alternative is trading a
        latency blip for unavailability — but the router's
        read-your-writes gate keeps the session off any replica that has
        not caught up, so correctness degrades to "failover may have to
        wait", never to a stale read.
        """
        def replicated() -> bool:
            with self._lock:
                return all(peer.acked >= seq for peer in self._peers.values()
                           if peer.connected)

        if await self._barriers.wait_until(
                replicated, self.wait_timeout if timeout is None else timeout):
            return True
        self.counters.increment("wait_timeouts")
        return False

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._closer()
                self._file = None


class ReplicationApplier:
    """Peer-side idempotent apply with per-origin sequence tracking.

    On a cluster backend :meth:`apply` runs on the server's loop thread,
    the thread that dispatches requests, so the engine sees one operation
    at a time; it never waits for the serving lock (DESIGN.md §13).  The
    applied marks are the stream marks of the database's sealed trusted
    state, so a snapshot carries them; one lock serialises ``apply`` for
    callers that drive the applier directly from several threads.
    """

    def __init__(self, db, metrics=None):
        self.db = db
        self.counters = registry_or_private(metrics).counter_view(
            "repl.apply.")
        self._lock = threading.Lock()

    def applied_for(self, origin: str) -> int:
        return self.db.cop.state.stream_mark(origin)

    def apply(self, origin: str, seq: int, sealed: bytes) -> int:
        """Apply one record; returns ``origin``'s applied mark.

        Only the record right after the mark applies.  Anything else
        applies nothing and is answered with the unchanged mark, from
        which the origin's streamer resends: a duplicate (counted), a
        record past a gap no streamer leaves or from no origin, and a
        record that fails authentication or whose sealed sequence is not
        the envelope's (a host splicing bodies; counted as an error) — a
        record the peer cannot authenticate must not stand in for the
        genuine one.  An *authentic* record whose engine op fails advances
        the mark anyway (also an error): wedging the whole stream on one
        poisoned write would turn it into full replica divergence.
        """
        with self._lock:
            applied = self.applied_for(origin)
            if seq <= applied:
                self.counters.increment("duplicates")
                return applied
            if seq > applied + 1 or not origin:
                return applied
            try:
                record = decode_record(self.db.cop, sealed)
                if record.seq != seq:
                    raise StorageError(
                        f"replication record body claims seq {record.seq} "
                        f"but arrived as seq {seq}"
                    )
            except ReproError:
                self.counters.increment("errors")
                return applied
            try:
                self._apply_record(record)
            except ReproError:
                self.counters.increment("errors")
            else:
                self.counters.increment("applied")
            self.db.cop.state.advance_stream(origin, seq)
            return seq

    def _apply_record(self, record: ReplicationRecord) -> None:
        # Engine-direct calls: the database-level emit hook must not see
        # replicated applies, or every record would re-broadcast forever.
        engine = self.db.engine
        if record.kind == KIND_WRITE:
            # modify() revives deleted/reserve-range pages, which is what
            # makes a replicated *insert* (write at the origin's chosen
            # free id) apply correctly here too.
            engine.modify(record.page_id, record.payload)
        elif record.kind == KIND_DELETE:
            try:
                engine.delete(record.page_id)
            except PageNotFoundError:
                # Already deleted here (e.g. snapshot raced the stream):
                # burn an identical-trace request anyway so the apply
                # pattern stays indistinguishable.
                engine.touch()
        else:
            engine.touch()

