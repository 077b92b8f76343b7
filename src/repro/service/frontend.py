"""The query front-end running inside the secure hardware (Figure 1).

Terminates per-client encrypted sessions, decodes requests, drives the
retrieval engine, and returns results — all inside the tamper boundary.
The host server relays opaque ciphertext blobs between clients and the
coprocessor and observes only the disk trace plus message timing.

Each connected client gets its own session keys (standing in for a TLS
handshake), so clients cannot read each other's traffic either.  Session
ids are unguessable 64-bit draws from the database's seeded RNG tree, in
process and over the network alike: the id is the key-agreement input.

Degradation contract: every error surfaces to the client as a
:class:`~repro.service.protocol.Refused` reply with a deterministic
machine-readable code (see :func:`repro.service.health.classify`) and,
when the refusal is retryable, a retry-after hint.  Storage/crypto faults
feed the frontend's :class:`~repro.service.health.HealthMonitor`; once it
trips to *failed* the frontend sheds all load without touching the engine
until :meth:`QueryFrontend.recover` has repaired the store.
"""

from __future__ import annotations

import contextlib
import struct
import threading
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from . import protocol
from .health import (
    SEVERITY_FATAL,
    SEVERITY_FAULT,
    HealthMonitor,
    classify,
    error_for_refusal,
)
from ..analysis.stats import LatencySeries
from ..core.database import PirDatabase
from ..core.engine import BatchOp
from ..core.journal import load_appended
from ..crypto.suite import CipherSuite
from ..errors import (
    DegradedServiceError,
    ProtocolError,
    ReproError,
    TransientChannelError,
)
from ..faults.retry import RetryPolicy, retry_call
from ..obs.registry import MetricsRegistry, registry_or_private
from ..twoparty.channel import SimulatedChannel

__all__ = [
    "QueryFrontend",
    "ServiceClient",
    "SealedReplyCache",
    "ClientOperationsMixin",
    "SESSION_RANDOM",
    "SESSION_BACKEND",
    "session_master_key",
]

#: How :meth:`QueryFrontend.open_session` assigns session ids, and the
#: one value ``session_id_mode`` accepts: unguessable 64-bit tokens (a
#: guessed id lets an attacker derive the session key; see
#: :func:`session_master_key`).
SESSION_RANDOM = "random"

#: Cipher backend used for per-session suites on both ends of the link.
SESSION_BACKEND = "shake"


def session_master_key(session_id: int) -> bytes:
    """Key material both sides derive the session suite from.

    Stands in for the key agreement of the SSL handshake: the server hands
    the client its session id over the (conceptually authenticated)
    handshake, and both ends expand it into identical encrypt/MAC keys.
    The id *is* the shared secret, which is why ids are unguessable
    random draws (:data:`SESSION_RANDOM`).
    """
    return b"client-session:" + session_id.to_bytes(8, "big")


#: Replies a :class:`SealedReplyCache` keeps (beyond its pinned ones).
REPLY_CACHE_SIZE = 256

#: On-disk record header of a persistent reply-cache entry:
#: u64 session id, u32 sealed-request length, u32 sealed-reply length,
#: followed by the two byte strings.
_CACHE_RECORD = struct.Struct(">QII")


class SealedReplyCache:
    """Bounded LRU of ``(session, sealed request) -> sealed reply``.

    Duplicate suppression for at-least-once delivery only ever needs the
    *recently* served transmissions (a network duplicate arrives close to
    the original), so the cache holds the last :data:`REPLY_CACHE_SIZE`
    replies across all sessions and evicts the least recently used beyond
    that — the old unbounded per-session dict grew forever on long
    sessions.

    With ``path`` the cache is additionally *persistent*: every ``put``
    appends the entry to the file before the caller acknowledges the
    request, and a restarted process reloads the tail of the log on
    construction.  This closes the crash window the in-memory cache
    leaves open — a mutation whose intent journal rolls *forward* on
    restart has been applied, so a client retransmission of the
    acknowledged sealed bytes must dedupe, not re-execute.  Entries are
    sealed ciphertext on both sides, so the file leaks nothing beyond
    traffic volume.  A torn final record (crash mid-append) is cut off on
    load (:func:`~repro.core.journal.load_appended`).  The log is append-only
    and never compacted; the in-memory LRU bound applies after reload.

    Eviction never removes a session's *most recent* reply.  That entry
    is exactly what a client retransmits after a reconnect or failover,
    and the retransmission may arrive before the original ack was ever
    seen — evicting it would re-execute an acknowledged mutation
    (double-apply).  Under churn this means the cache can temporarily
    exceed its size by up to one pinned entry per live session;
    :meth:`drop_session` unpins when the session closes or is reaped.

    Thread-safe: cluster members in one process share a cache, each
    member using it from its own event-loop thread.
    """

    def __init__(self, path=None):
        self._entries: "OrderedDict[tuple, bytes]" = OrderedDict()
        # session id -> key of that session's most recent reply (pinned).
        self._latest: Dict[int, tuple] = {}
        # key -> (origin, repl_seq) for entries whose mutation was
        # emitted into a replication log (see get).
        self._marks: Dict[tuple, tuple] = {}
        self._lock = threading.Lock()
        self._path = str(path) if path is not None else None
        self._file = None
        if self._path is not None:
            self._load()
            self._file = open(self._path, "ab")
            # A cache dropped without close() releases it at collection.
            self._closer = weakref.finalize(self, self._file.close)

    def _load(self) -> None:
        for _, (session_id, req_len, _), body in load_appended(
                self._path, _CACHE_RECORD,
                lambda session_id, req_len, reply_len: req_len + reply_len):
            key = (session_id, body[:req_len])
            self._entries[key] = body[req_len:]
            self._latest[session_id] = key  # last record wins
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        """Evict oldest-first, skipping each session's pinned latest reply.

        Caller holds the lock (or is still single-threaded in _load).
        When every entry is pinned the cache overflows instead of
        evicting an un-acked reply.
        """
        while len(self._entries) > REPLY_CACHE_SIZE:
            victim = None
            for key in self._entries:
                if self._latest.get(key[0]) != key:
                    victim = key
                    break
            if victim is None:
                break
            del self._entries[victim]
            self._marks.pop(victim, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, session_id: int, sealed_request: bytes):
        """``(sealed reply, mark)`` cached for the request, or None.

        On cluster backends every cached reply carries the ``(origin,
        seq)`` mark of the replication record its mutation emitted; a
        member serving the entry as a dedupe must have applied that record
        first (the server's dedupe gate), or a preserved ACK could outlive
        the write it acknowledges.  Marks are in-memory only: entries
        reloaded from a persistent cache file have none (None), and the
        restart catch-up handshake covers that window instead.
        """
        key = (session_id, sealed_request)
        with self._lock:
            reply = self._entries.get(key)
            if reply is None:
                return None
            self._entries.move_to_end(key)
            return reply, self._marks.get(key)

    def put(self, session_id: int, sealed_request: bytes,
            sealed_reply: bytes, mark=None) -> None:
        key = (session_id, sealed_request)
        with self._lock:
            if self._file is not None:
                self._file.write(
                    _CACHE_RECORD.pack(session_id, len(sealed_request),
                                       len(sealed_reply))
                    + sealed_request + sealed_reply
                )
                self._file.flush()
            self._entries[key] = sealed_reply
            self._entries.move_to_end(key)
            self._latest[session_id] = key
            if mark is not None:
                self._marks[key] = mark
            else:
                self._marks.pop(key, None)
            self._evict_over_capacity()

    def drop_session(self, session_id: int) -> None:
        with self._lock:
            self._latest.pop(session_id, None)
            stale = [key for key in self._entries if key[0] == session_id]
            for key in stale:
                del self._entries[key]
                self._marks.pop(key, None)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._closer()
                self._file = None


class QueryFrontend:
    """Session manager + request dispatcher inside the coprocessor."""

    def __init__(
        self,
        database: PirDatabase,
        metrics=None,
        session_id_mode: str = SESSION_RANDOM,
        session_ttl: Optional[float] = None,
        time_source: Optional[Callable[[], float]] = None,
        reply_cache: Optional[SealedReplyCache] = None,
        session_salt: Optional[str] = None,
    ):
        """Session ids are unguessable random draws; ``session_id_mode``
        accepts only :data:`SESSION_RANDOM`.  ``session_ttl`` enables
        idle-session reaping: sessions unused for more than
        ``session_ttl`` seconds of ``time_source`` time (default: the
        database's virtual clock; the network server passes
        ``time.monotonic``) are eligible for
        :meth:`reap_idle_sessions`, which drops their key material and
        cached replies.

        ``reply_cache`` is the frontend's :class:`SealedReplyCache`; the
        default is a private in-memory one.  Pass one to share it across
        frontends (cluster replicas dedupe each other's retransmissions)
        or to give it a ``path`` so acknowledged replies survive a
        crash-restart.  The :class:`HealthMonitor` is the
        frontend's own (``self.health``), counting into ``metrics``.

        ``session_salt`` diversifies the session id stream.  Session ids
        derive from the database's seeded RNG tree, so two frontends over
        same-seed databases — exactly how cluster
        members are deployed, since a shared seed is what makes their
        data identical — would otherwise issue the *same* id sequence.
        Colliding ids are fatal behind a router: the id doubles as the
        key-agreement input, so two clients would share a suite, and
        either one's BYE would tear down the other's session.  Give every
        cluster member a distinct salt (``cluster serve-backend``
        generates one per process by default).
        """
        if session_id_mode != SESSION_RANDOM:
            raise ProtocolError(
                f"unknown session_id_mode {session_id_mode!r}; "
                f"expected {SESSION_RANDOM!r}"
            )
        if session_ttl is not None and session_ttl <= 0:
            raise ProtocolError("session_ttl must be positive (or None)")
        self.database = database
        self.session_ttl = session_ttl
        self._time_source = (
            time_source if time_source is not None
            else (lambda: database.clock.now)
        )
        self._sessions: Dict[int, CipherSuite] = {}
        self._last_used: Dict[int, float] = {}
        # session id -> number of requests admitted but not yet answered
        # (queued or being served); the idle reaper must not close these.
        self._inflight_requests: Dict[int, int] = {}
        # Guards the session tables: a server's event loop opens, closes,
        # reaps and serves sessions while other threads (tests, the CLI, a
        # harness, an in-process ServiceClient) count or serve them.
        self._session_lock = threading.Lock()
        self._session_rng = database.cop.rng.spawn(
            "session-ids" if session_salt is None
            else f"session-ids-{session_salt}"
        )
        # Recently served (sealed request -> sealed reply) pairs for
        # at-least-once duplicate suppression (see serve()); bounded LRU
        # so long-lived sessions cannot grow it without limit.
        self._reply_cache = (reply_cache if reply_cache is not None
                             else SealedReplyCache())
        metrics = registry_or_private(metrics)
        self.counters = metrics.counter_view("frontend.")
        self._batch_sizes = metrics.histogram(
            "frontend.batch.size",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        )
        self.health = HealthMonitor(counters=self.counters, registry=metrics)
        self.tracer = database.tracer

    # -- session management ----------------------------------------------------

    def open_session(self) -> int:
        """Establish a client session; returns the session id.

        Stands in for the SSL handshake: a per-session key pair is derived
        inside the boundary and (conceptually) shared with the client via
        the handshake.  :meth:`session_suite` hands the client its copy.

        The id is an unguessable 64-bit token (re-drawn on the
        astronomically unlikely collision).
        """
        with self._session_lock:
            session_id = 0
            while session_id == 0 or session_id in self._sessions:
                session_id = int.from_bytes(self._session_rng.token(8), "big")
            self._sessions[session_id] = CipherSuite(
                session_master_key(session_id),
                backend=SESSION_BACKEND,
                rng=self.database.cop.rng.spawn(f"session-{session_id}"),
            )
            self._last_used[session_id] = self._time_source()
        self.counters.increment("sessions")
        return session_id

    def adopt_session(self, session_id: int) -> bool:
        """Install the suite for a session opened by *another* frontend.

        Failover support: the session suite is a pure function of the id
        (:func:`session_master_key`), so a replica can reconstruct a dead
        primary's session from the id the client presents in its RESUME —
        no state transfer required.  Returns ``True`` when the session was
        created here, ``False`` when it already existed (idempotent).

        Only meaningful behind a trust boundary that vouches for the id —
        the cluster router, which learned it from the backend's WELCOME.
        A public-facing server must never adopt: presenting an id would
        then *be* authentication bypass.  Hence the opt-in
        ``adopt_sessions`` flag on :class:`~repro.net.server.PirServer`.
        """
        if session_id == 0:
            raise ProtocolError("cannot adopt session id 0")
        with self._session_lock:
            if session_id in self._sessions:
                self._last_used[session_id] = self._time_source()
                return False
            self._sessions[session_id] = CipherSuite(
                session_master_key(session_id),
                backend=SESSION_BACKEND,
                rng=self.database.cop.rng.spawn(f"session-{session_id}"),
            )
            self._last_used[session_id] = self._time_source()
        self.counters.increment("sessions.adopted")
        return True

    def session_suite(self, session_id: int) -> CipherSuite:
        with self._session_lock:
            suite = self._sessions.get(session_id)
        if suite is None:
            raise ProtocolError(f"unknown session {session_id}")
        return suite

    def close_session(self, session_id: int) -> None:
        with self._session_lock:
            self._sessions.pop(session_id, None)
            self._last_used.pop(session_id, None)
            self._inflight_requests.pop(session_id, None)
        self._reply_cache.drop_session(session_id)

    def begin_request(self, session_id: int) -> None:
        """Mark a request admitted for ``session_id`` (queued or serving).

        The network server brackets the whole queued-to-answered window
        with begin/end so :meth:`reap_idle_sessions` cannot reap a session
        whose request waits for the serving lock — reaping it there
        turned a retryable shed into a non-retryable ``session-not-found``.
        """
        with self._session_lock:
            self._inflight_requests[session_id] = (
                self._inflight_requests.get(session_id, 0) + 1
            )

    def end_request(self, session_id: int) -> None:
        """Balance a :meth:`begin_request` once the reply (or refusal) is out."""
        with self._session_lock:
            count = self._inflight_requests.get(session_id, 0) - 1
            if count <= 0:
                self._inflight_requests.pop(session_id, None)
            else:
                self._inflight_requests[session_id] = count

    @property
    def session_count(self) -> int:
        """Number of currently open sessions."""
        with self._session_lock:
            return len(self._sessions)

    @property
    def session_ids(self) -> List[int]:
        """Snapshot of the open session ids (for shutdown sweeps)."""
        with self._session_lock:
            return list(self._sessions)

    def reap_idle_sessions(self) -> int:
        """Drop sessions idle for longer than ``session_ttl``.

        Abandoned connections otherwise accumulate key material and
        reply-cache entries forever: the suite of a session that will never
        speak again is pure liability.  Returns the number of sessions
        reaped (0 when no TTL is configured) and counts them under
        ``sessions.reaped``.  A reaped session's later requests refuse with
        an ``unknown session`` protocol error, exactly like an explicit
        :meth:`close_session`.

        Sessions with in-flight work (admitted requests still queued or
        being served, see :meth:`begin_request`) are never reaped, however
        stale their last-used stamp: under load a request can wait for the
        serving lock past the TTL, and reaping the session underneath it
        answers ``session-not-found`` where a retryable refusal was due.
        """
        if self.session_ttl is None:
            return 0
        now = self._time_source()
        with self._session_lock:
            stale = [
                session_id
                for session_id, last in self._last_used.items()
                if now - last > self.session_ttl
                and self._inflight_requests.get(session_id, 0) == 0
            ]
            for session_id in stale:
                self._sessions.pop(session_id, None)
                self._last_used.pop(session_id, None)
        for session_id in stale:
            self._reply_cache.drop_session(session_id)
        if stale:
            self.counters.increment("sessions.reaped", len(stale))
        return len(stale)

    # -- recovery ----------------------------------------------------------------

    def recover(self):
        """Run engine crash recovery and return the frontend to service.

        Returns the engine's :class:`~repro.core.engine.RecoveryReport`.
        If recovery itself fails the health state stays *failed* and the
        exception propagates to the operator.
        """
        report = self.database.recover()
        self.health.mark_recovered()
        self.counters.increment("recoveries")
        return report

    # -- request dispatch ----------------------------------------------------------

    def serve(self, session_id: int, sealed_request: bytes) -> bytes:
        """Handle one encrypted client request; always returns a sealed reply.

        At-least-once delivery safety: clients seal every logical request
        under a fresh random nonce, so two byte-identical sealed requests
        can only be the *same transmission* delivered twice (a network
        duplicate or a blind retransmission).  Replaying the duplicate
        would double-apply mutations — an Insert would leak a page, an
        Update would burn a second trace-visible request — so the frontend
        answers it from the reply cache without touching the engine.  Only
        successfully dispatched replies are cached; refusals re-execute,
        which is safe because a refused request mutated nothing durable.

        The in-process path: :meth:`lookup`, :meth:`execute`,
        :meth:`remember` — the steps the network server takes, which on a
        replicated member also awaits the semi-sync barrier before
        :meth:`remember` and the dedupe gate after :meth:`lookup`.
        """
        hit = self.lookup(session_id, sealed_request)
        if hit is not None:
            self.counters.increment("requests.duplicate")
            return hit[0]
        sealed_reply, cacheable = self.execute(session_id, sealed_request)
        if cacheable:
            self.remember(session_id, sealed_request, sealed_reply)
        return sealed_reply

    def lookup(self, session_id: int, sealed_request: bytes):
        """``(sealed reply, mark)`` cached for a retransmission, or None.

        ``mark`` is the ``(origin, seq)`` of the replication record the
        original's mutation emitted (None off a replicated member).
        Refuses an unknown session and refreshes its idle clock.
        """
        self.session_suite(session_id)
        with self._session_lock:
            if session_id in self._last_used:
                self._last_used[session_id] = self._time_source()
        return self._reply_cache.get(session_id, sealed_request)

    def execute(self, session_id: int, sealed_request: bytes):
        """Open, dispatch and seal one request that missed the cache.

        Returns ``(sealed reply, cacheable)``; a reply is cacheable unless
        it is a refusal.  Every failure past the session check is sealed
        into a ``Refused`` reply.
        """
        with self.tracer.span("frontend.serve"):
            suite = self.session_suite(session_id)
            try:
                request = protocol.decode_client_message(
                    suite.decrypt_page(sealed_request)
                )
            except ReproError as exc:
                # A request that cannot even be opened is the client's
                # problem (wrong key, garbage bytes); it never reaches the
                # engine and never counts against service health.
                reply = self._refusal_for(exc)
            else:
                try:
                    self.health.check()
                    reply = self._dispatch(request)
                except ReproError as exc:
                    self._record_fault(exc)
                    reply = self._refusal_for(exc)
            self.counters.increment("requests")
            reshuffle = getattr(self.database, "reshuffle", None)
            if reshuffle is not None and reshuffle.active:
                # How much traffic the online re-permutation overlapped:
                # the zero-refusal bench gate divides refusals by this.
                self.counters.increment("requests.during_reshuffle")
            sealed_reply = suite.encrypt_page(
                protocol.encode_client_message(reply)
            )
        # BatchReply is cached even when some entries are Refused: the
        # *other* entries may have mutated durable state, so a duplicate
        # must not re-execute them.
        return sealed_reply, not isinstance(reply, protocol.Refused)

    def remember(self, session_id: int, sealed_request: bytes,
                 sealed_reply: bytes, mark=None) -> None:
        """Cache a reply for its retransmissions, with its replication mark.

        Call it as soon as the request has run: a retransmission must find
        the write it stands for, never run it again.  On a replicated
        member a cached reply goes out only once the write behind ``mark``
        settles (``PirServer._settle``): replicated to the connected peers
        for this member's own write, applied here for another origin's.
        """
        self._reply_cache.put(session_id, sealed_request, sealed_reply,
                              mark=mark)

    def _record_fault(self, exc: ReproError) -> bool:
        """Tell health about a failed engine pass, if the fault is the
        service's (storage, crypto) and not the client's; returns whether
        it was."""
        severity = classify(exc).severity
        if severity not in (SEVERITY_FAULT, SEVERITY_FATAL):
            return False
        self.health.record_fault(fatal=severity == SEVERITY_FATAL)
        return True

    def _refusal_for(self, exc: ReproError) -> protocol.Refused:
        refusal = classify(exc)
        self.counters.increment(f"refused.{refusal.code}")
        if isinstance(exc, DegradedServiceError):
            retry_after = exc.retry_after
        elif refusal.retryable:
            retry_after = self.health.retry_after
        else:
            retry_after = -1.0
        return protocol.Refused(
            f"{type(exc).__name__}: {exc}", refusal.code, retry_after
        )

    def _dispatch(self, request: protocol.ClientMessage) -> protocol.ClientMessage:
        """Serve a request as one :meth:`~PirDatabase.run_batch` call.

        A lone op is a batch of one slot.  A batch is one call for all its
        ops (one disk pass per round-robin window); a failed slot comes
        back as an exception instance and becomes the same per-op
        :class:`~repro.service.protocol.Refused` reply either way, so
        clients cannot tell a batched op from a single one by reply
        content, and a failed lone op refuses the request, uncached.  A
        window that fails hands every slot it held the *same* exception,
        so health counts distinct failures, not refused slots.  Health
        hears a success from a batch when no window faulted, and from a
        lone op only when it was served.
        """
        batched = isinstance(request, protocol.Batch)
        if batched:
            # The wire codec admits only the four op types inside a Batch.
            wire_ops = request.ops
            self.counters.increment("batch.requests")
            self.counters.increment("batch.ops", len(wire_ops))
            self._batch_sizes.observe(len(wire_ops))
        elif type(request) in _OPS:
            wire_ops = (request,)
        else:
            raise ProtocolError(
                f"frontend cannot handle {type(request).__name__}"
            )
        ops = [_OPS[type(op)].engine_op(op) for op in wire_ops]
        with (self.tracer.span("frontend.batch") if batched
              else contextlib.nullcontext()):
            results = self.database.run_batch(ops)
        failures = {id(outcome): outcome for outcome in results
                    if isinstance(outcome, ReproError)}
        faulted = [self._record_fault(exc) for exc in failures.values()]
        if not any(faulted) and (batched or not failures):
            self.health.record_success()
        replies = [
            self._refusal_for(outcome) if isinstance(outcome, ReproError)
            else _OPS[type(op)].reply(op, outcome)
            for op, outcome in zip(wire_ops, results)
        ]
        return protocol.BatchReply(replies) if batched else replies[0]


class _Op(NamedTuple):
    engine_op: Callable  # wire op -> its BatchOp
    reply: Callable      # (wire op, its outcome) -> reply message


# The one op table: what a lone op or a batch slot runs, and its one reply
# either way — clients cannot tell a batched op from a single one.
_OPS = {
    protocol.Query: _Op(
        lambda op: BatchOp("query", page_id=op.page_id),
        lambda op, payload: protocol.Result(op.page_id, payload),
    ),
    protocol.Update: _Op(
        lambda op: BatchOp("update", page_id=op.page_id, payload=op.payload),
        lambda op, _: protocol.Ok(),
    ),
    protocol.Insert: _Op(
        lambda op: BatchOp("insert", payload=op.payload),
        lambda op, new_id: protocol.Result(new_id, op.payload),
    ),
    protocol.Delete: _Op(
        lambda op: BatchOp("delete", page_id=op.page_id),
        lambda op, _: protocol.Ok(),
    ),
}


class ClientOperationsMixin:
    """The operation surface shared by every client of the service.

    Concrete clients (:class:`ServiceClient` over the in-process simulated
    channel, :class:`repro.net.client.NetworkClient` over a real TCP
    socket) provide ``_transact(request_id, sealed) -> sealed reply`` — one
    transmission — and ``_clock``, whose ``now`` times it and whose
    ``advance`` backs off between retries, plus ``_suite``, ``retry``,
    ``_retry_rng``, ``_next_request_id``, ``counters`` and ``latencies``.
    The mixin owns the round trip (:meth:`_call`) and turns it into the
    typed query/update/insert/delete/batch API.
    """

    def _transact(
        self, request_id: int, sealed: bytes
    ) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def _call(self, message: protocol.ClientMessage) -> protocol.ClientMessage:
        """One logical round trip, retried under :attr:`retry`.

        The request is sealed once: every retry retransmits the same bytes
        under the same request id, so the frontend's reply cache answers a
        retransmission whose original was executed instead of running it
        twice.  A ``Refused`` reply raises the server's error class — a
        not-found refusal :class:`~repro.errors.PageNotFoundError`, a
        retryable one :class:`~repro.errors.DegradedServiceError` (which
        the retry loop keys on) — never a generic client error.
        """
        sealed = self._suite.encrypt_page(protocol.encode_client_message(message))
        request_id = self._next_request_id
        self._next_request_id += 1

        def attempt() -> protocol.ClientMessage:
            started = self._clock.now
            sealed_reply = self._transact(request_id, sealed)
            self.latencies.record(self._clock.now - started)
            reply = protocol.decode_client_message(
                self._suite.decrypt_page(sealed_reply)
            )
            if isinstance(reply, protocol.Refused):
                raise error_for_refusal(
                    reply.code,
                    f"request refused: {reply.reason}",
                    reply.retry_after,
                )
            return reply

        if self.retry is None:
            return attempt()
        return retry_call(
            attempt, self.retry, self._clock, self._retry_rng,
            (TransientChannelError, DegradedServiceError),
            counters=self.counters,
        )

    def query(self, page_id: int) -> bytes:
        reply = self._call(protocol.Query(page_id))
        if not isinstance(reply, protocol.Result):
            raise ProtocolError(f"expected Result, got {type(reply).__name__}")
        return reply.payload

    def update(self, page_id: int, payload: bytes) -> None:
        reply = self._call(protocol.Update(page_id, payload))
        if not isinstance(reply, protocol.Ok):
            raise ProtocolError(f"expected Ok, got {type(reply).__name__}")

    def insert(self, payload: bytes) -> int:
        reply = self._call(protocol.Insert(payload))
        if not isinstance(reply, protocol.Result):
            raise ProtocolError(f"expected Result, got {type(reply).__name__}")
        return reply.page_id

    def delete(self, page_id: int) -> None:
        reply = self._call(protocol.Delete(page_id))
        if not isinstance(reply, protocol.Ok):
            raise ProtocolError(f"expected Ok, got {type(reply).__name__}")

    def batch(
        self, operations: Sequence[protocol.ClientMessage]
    ) -> List[protocol.ClientMessage]:
        """Run several ops in one sealed round trip; returns positional replies.

        One session frame carries the whole batch, so the per-message
        session crypto and channel RTT are paid once instead of
        ``len(operations)`` times.  Failures are per-operation: slot i holds
        a :class:`~repro.service.protocol.Refused` when op i was declined
        while the others proceeded — the caller inspects each slot rather
        than getting an exception.  (Exceptions still surface when the
        *batch itself* never reaches the engine: a malformed batch or a
        frontend that is shedding all load refuses the whole message.)

        Mutating batches should not be blindly retried through a
        :class:`~repro.faults.retry.RetryPolicy`-driven loop unless every
        op is idempotent; the duplicate-suppression cache protects only
        byte-identical retransmissions of the same sealed frame.
        """
        reply = self._call(protocol.Batch(tuple(operations)))
        if not isinstance(reply, protocol.BatchReply):
            raise ProtocolError(
                f"expected BatchReply, got {type(reply).__name__}"
            )
        if len(reply.replies) != len(operations):
            raise ProtocolError(
                f"batch of {len(operations)} ops answered with "
                f"{len(reply.replies)} replies"
            )
        self.counters.increment("batches")
        return list(reply.replies)

    def query_many(self, page_ids: Sequence[int]) -> List[bytes]:
        """Batched :meth:`query`; raises on the first refused slot."""
        payloads = []
        for page_id, reply in zip(
            page_ids, self.batch([protocol.Query(p) for p in page_ids])
        ):
            if isinstance(reply, protocol.Refused):
                raise error_for_refusal(
                    reply.code,
                    f"query {page_id} refused: {reply.reason}",
                    reply.retry_after,
                )
            if not isinstance(reply, protocol.Result):
                raise ProtocolError(
                    f"expected Result, got {type(reply).__name__}"
                )
            payloads.append(reply.payload)
        return payloads


class ServiceClient(ClientOperationsMixin):
    """A client of the three-party service, talking over its own channel.

    With a :class:`~repro.faults.retry.RetryPolicy`, the client retries
    transient channel faults (lost/timed-out messages) and retryable
    refusals, honouring the server's retry-after hint as a floor under its
    own exponential backoff.  Backoff time advances the shared virtual
    clock and jitter comes from a spawned seeded RNG, so retried runs stay
    deterministic.  ``channel_wrapper`` interposes on the outgoing channel
    — e.g. ``lambda ch: FlakyChannel(ch, injector)`` for fault drills.
    """

    def __init__(
        self,
        frontend: QueryFrontend,
        retry: Optional[RetryPolicy] = None,
        channel_wrapper=None,
    ):
        self.frontend = frontend
        self.session_id = frontend.open_session()
        self._suite = frontend.session_suite(self.session_id)
        self.channel = SimulatedChannel(
            frontend.database.clock,
            lambda blob: frontend.serve(self.session_id, blob),
            rtt=0.02,
            bandwidth=10e6,
        )
        if channel_wrapper is not None:
            self.channel = channel_wrapper(self.channel)
        self.retry = retry
        self._retry_rng = frontend.database.cop.rng.spawn(
            f"client-retry-{self.session_id}"
        )
        self._clock = self.channel.clock
        self._next_request_id = 1
        self.counters = MetricsRegistry().counter_view()
        self.latencies = LatencySeries()

    def _transact(self, request_id: int, sealed: bytes) -> bytes:
        """One transmission over the channel; the channel needs no id."""
        return self.channel.call(sealed)

    def close(self) -> None:
        self.frontend.close_session(self.session_id)
