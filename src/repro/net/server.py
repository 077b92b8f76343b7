"""Asyncio TCP server bridging real sockets to the synchronous engine.

Architecture (DESIGN.md §12)::

    client sockets ──▶ asyncio event loop, one thread (pir-server)
       (framing,        (EnvelopeServer + handshake, admission, serving
        envelope)        lock, dedupe, frontend.execute and peer applies
                         inline, reply cache, waits, replication streams,
                         drain)

The event loop owns everything: the listener and the connection state
machine (:class:`~repro.net.endpoint.EnvelopeServer`), and, added here,
the HELLO/WELCOME handshake that binds a connection to a
:class:`~repro.service.frontend.QueryFrontend` session, admission control,
graceful drain — and the order requests are served in: one
``asyncio.Lock`` held from the dedupe check through the reply, so the
engine sees one request at a time, exactly as the paper's
coprocessor serves them (Figure 3).  The engine runs on the loop thread
too: every ``frontend.execute`` and every inbound replication record is a
synchronous call on the loop, so every engine entry — and every span it
opens — comes from that one thread, and no call crosses a thread.  While
one computes, the loop reads, sheds and answers PINGs only once it
returns.  A replicated member's outbound streams, one per peer, are tasks
on the loop too (:meth:`PirServer.stream_to`), and so are a request's two
waits: the semi-sync barrier is a coroutine the stream tasks wake as
peers ack, and the dedupe gate one that each peer apply wakes as it
returns.  Neither holds the loop, and replication records never take the
serving lock, which is why a serve parked in its barrier can never starve
the peer applies that release it (DESIGN.md §13).  A member, replicated
or not, is one thread.

Graceful drain: :meth:`PirServer.drain` stops accepting, answers new
requests on live connections with a retryable refusal, waits for every
in-flight request to finish *and its reply to be written*, then stops
the replication streams and closes sessions — no admitted request is lost,
and none is double-applied.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Optional

from .admission import SHED_CODE, AdmissionController
from .endpoint import EnvelopeServer, protocol_refusal, read_message
from .framing import (
    Hello,
    NET_VERSION,
    NetRefused,
    Pong,
    ReplAck,
    ReplQuery,
    ReplRecord,
    ReplState,
    Reply,
    Request,
    Resume,
    Welcome,
)
from ..errors import (
    ConfigurationError,
    DegradedServiceError,
    ProtocolError,
    ReproError,
)
from ..loopthread import LoopThread, LoopWaiters
from ..obs.registry import registry_or_private
from ..service import protocol
from ..service.frontend import QueryFrontend
from ..service.health import classify

__all__ = ["PirServer", "ServerThread"]

_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                    0.1, 0.25, 0.5, 1.0, 2.5)


class PirServer(EnvelopeServer):
    """Serves a :class:`QueryFrontend` over TCP (see module docstring).

    Construct, then ``await start()`` on a running event loop (or use
    :class:`ServerThread` from synchronous code).  Requests beyond what
    the optional :class:`~repro.net.admission.AdmissionController` admits
    — its ``max_queue_depth`` bounds the requests waiting for the serving
    lock — are shed with a retryable refusal, never silently dropped.
    ``workers`` is accepted only as 1: the engine serves one request at a
    time on the server's loop thread.
    """

    def __init__(
        self,
        frontend: QueryFrontend,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        workers: int = 1,
        reap_interval: Optional[float] = None,
        adopt_sessions: bool = False,
        metrics=None,
    ):
        if workers != 1:
            raise ConfigurationError(
                "a PirServer serves one request at a time on its loop "
                "thread; workers must be 1"
            )
        if reap_interval is not None and reap_interval <= 0:
            raise ConfigurationError("reap_interval must be positive")
        metrics = registry_or_private(metrics)
        super().__init__(host, port, metrics.counter_view("net."))
        self.frontend = frontend
        self.admission = admission
        # Cluster backends adopt unknown RESUMEd session ids (failover);
        # public-facing servers must leave this off — see
        # QueryFrontend.adopt_session for the trust argument.
        self.adopt_sessions = adopt_sessions
        self.reap_interval = reap_interval
        self._sessions_gauge = metrics.gauge("net.sessions.active")
        self._queue_gauge = metrics.gauge("net.queue.depth")
        self._latency = metrics.histogram("net.request.seconds",
                                          buckets=_LATENCY_BUCKETS)
        self._reap_task: Optional[asyncio.Task] = None
        self._inflight = 0
        self._idle_event: Optional[asyncio.Event] = None
        # One request at a time, from dedupe check to reply;
        # created in start() so it binds to the serving loop.
        self._serving: Optional[asyncio.Lock] = None
        self._queued = 0  # requests waiting for _serving
        # Test hook: called on the loop thread just before a request is
        # dispatched; blocking in it blocks the whole loop.
        self._serve_hook = None
        # Sealed write replication (cluster backends only; see
        # attach_replication).
        self._repl_log = None
        self._repl_applier = None
        self._streams: list = []  # stream_to's tasks, one per peer
        # Dedupe gates waiting for a peer apply (_settle, _apply_one).
        self._applies = LoopWaiters()

    def attach_replication(self, log, applier) -> None:
        """Wire a :class:`~repro.cluster.replication.ReplicationLog` and
        :class:`~repro.cluster.replication.ReplicationApplier` in.

        Afterwards this server (a) answers peer REPL_QUERY/REPL_RECORD
        connections, applying inbound records on the loop without the
        serving lock, (b) holds each successful reply until
        every *connected* peer has acked the sequence its dispatch emitted —
        semi-synchronous replication, which is what makes an
        acknowledged write survive this backend's death — and only then
        caches it, (c) dedupe-serves a cached reply only once this member
        has applied the write behind it, and (d) stamps every REPLY with
        its own sequence for the router's read-your-writes gate.
        Streaming ``log`` to the peers is :meth:`stream_to`'s.
        """
        self._repl_log = log
        self._repl_applier = applier

    async def stream_to(self, peers) -> None:
        """Stream the attached log to exactly ``peers`` (``host:port``).

        The current streams are cancelled first; then one
        :meth:`~repro.cluster.replication.ReplicationLog.stream` task per
        peer runs on this loop until the next call, :meth:`drain` or a
        kill.  ``stream_to(())`` stops streaming, and a stopped stream's
        peer is no longer waited on by the semi-sync barrier.
        """
        streams, self._streams = set(self._streams), []
        while streams:
            # Again until done: before Python 3.12 a wait_for racing its
            # inner read can swallow a cancellation.
            for task in streams:
                task.cancel()
            _, streams = await asyncio.wait(streams, timeout=0.2)
        self._streams = [asyncio.ensure_future(self._repl_log.stream(peer))
                         for peer in peers]

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; the loop it runs on serves everything."""
        await self.listen()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._serving = asyncio.Lock()
        if self.reap_interval is not None:
            self._reap_task = asyncio.ensure_future(self._reap_loop())

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close up.

        Idempotent.  After drain every session is closed; live client
        connections are dropped (their next request would only be refused
        anyway).
        """
        if self._draining:
            return
        self._draining = True
        self.stop_accepting()
        if self._reap_task is not None:
            self._reap_task.cancel()
            await asyncio.gather(self._reap_task, return_exceptions=True)
            self._reap_task = None
        if self._inflight > 0:
            await self._idle_event.wait()
        # Only now: a serve's barrier waits on the streams' acks.
        await self.stream_to(())
        await self.close()
        if not self.adopt_sessions:
            # A cluster backend leaves its sessions alone: they fail over
            # to peers, and close_session would purge their entries from
            # the *shared* reply cache — exactly the dedupe state a peer
            # needs to answer the failover retransmissions.
            for session_id in self.frontend.session_ids:
                self.frontend.close_session(session_id)
        self._publish_sessions()
        self.counters.increment("drains")

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.reap_interval)
            self.frontend.reap_idle_sessions()
            self._publish_sessions()

    def _publish_sessions(self) -> None:
        self._sessions_gauge.set(self.frontend.session_count)

    @contextlib.contextmanager
    def _in_flight(self):
        """Work drain must wait for: a request from admission to reply
        written."""
        self._inflight += 1
        self._idle_event.clear()
        try:
            yield
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle_event.set()

    @contextlib.asynccontextmanager
    async def _turn(self):
        """Hold the serving lock; its waiters are ``net.queue.depth``."""
        self._queued += 1
        self._queue_gauge.set(self._queued)
        try:
            await self._serving.acquire()
        finally:
            self._queued -= 1
            self._queue_gauge.set(self._queued)
        try:
            yield
        finally:
            self._serving.release()

    # -- the envelope hooks ----------------------------------------------------

    async def handle(self, reader, writer) -> None:
        self.counters.increment("connections.accepted")
        try:
            await super().handle(reader, writer)
        finally:
            self.counters.increment("connections.closed")

    def pong(self) -> Pong:
        """``sessions`` is the router's load signal."""
        return Pong(self._draining, self.frontend.session_count)

    async def _open(self, first, reader, writer):
        if isinstance(first, (ReplQuery, ReplRecord)):
            await self._repl_loop(reader, writer, first)
            return None, None
        return self._handshake(first)

    async def _request(self, session_id: int, request: Request,
                       writer) -> None:
        started = time.monotonic()
        # In flight from admission through reply-written, so drain cannot
        # cut off a reply that is still in transit.
        with self._in_flight():
            reply = await self._admit_and_dispatch(session_id, request)
            # Counted before the bytes go out, like bytes.out in _send.
            if isinstance(reply, Reply):
                self.counters.increment("replies")
            await self._send(writer, reply)
        self._latency.observe(time.monotonic() - started)

    async def _bye(self, session_id: int) -> None:
        # Only this closes a session; drain and TTL reaping bound how long
        # one abandoned without a BYE keeps its suite and reply cache.
        self.frontend.close_session(session_id)
        self._publish_sessions()

    # -- replication connections -----------------------------------------------

    async def _repl_loop(self, reader, writer, first) -> None:
        """Serve a peer's replication connection (REPL_QUERY/REPL_RECORD).

        The stream is sessionless like a probe: a REPL_QUERY answers with
        this backend's applied high-water mark for the asking origin (the
        catch-up handshake), and each REPL_RECORD is applied on the loop
        — never behind the serving lock — then acked with the new
        applied mark.  Apply is idempotent, so a shed or re-sent record is
        simply acked at the unchanged mark and the peer retransmits.
        """
        if self._repl_applier is None:
            raise ProtocolError("replication is not enabled on this server")
        message = first
        while True:
            if isinstance(message, ReplQuery):
                self.counters.increment("repl.queries")
                await self._send(writer, ReplState(
                    message.origin,
                    self._repl_applier.applied_for(message.origin),
                ))
            elif isinstance(message, ReplRecord):
                await self._send(writer, ReplAck(
                    message.origin, self._apply_one(message)))
            else:
                raise ProtocolError(
                    f"replication connection sent {type(message).__name__}"
                )
            message = await read_message(reader)

    def _apply_one(self, record: ReplRecord) -> int:
        """Apply one inbound record on the loop; return the applied mark.

        The apply then wakes the dedupe gates (:meth:`_settle`) waiting
        for it.  While draining the record is *not* applied and the
        current mark is returned unchanged — the peer's streamer sees a
        stale ack and retransmits after backoff.
        """
        applier = self._repl_applier
        if self._draining:
            self.counters.increment("shed")
            self.counters.increment("shed.repl")
            return applier.applied_for(record.origin)
        try:
            applied = applier.apply(record.origin, record.seq, record.sealed)
        except Exception:
            # Never wedge the peer's stream: ack the unchanged mark so its
            # streamer backs off and retransmits.
            self.counters.increment("repl.apply_errors")
            applied = applier.applied_for(record.origin)
        self._applies.wake()
        return applied

    # -- sessions and admission ------------------------------------------------

    def _handshake(self, message):
        """``(session id, WELCOME)``, or ``(None, refusal)``.

        HELLO opens a new session; RESUME re-attaches a known one (same
        process the client first spoke to).  An *unknown* resumed id is
        adopted only when ``adopt_sessions`` is set — the cluster-backend
        posture, where the router vouches for ids — and counts against the
        admission session cap like a fresh handshake.
        """
        if isinstance(message, Resume):
            session_id = message.session_id
        elif isinstance(message, Hello) and message.version == NET_VERSION:
            session_id = None
        else:
            return None, protocol_refusal(
                f"handshake expected HELLO v{NET_VERSION}"
            )
        if self._draining:
            return None, NetRefused(0, self._drain_refusal())
        if session_id in self.frontend.session_ids:
            self.counters.increment("sessions.resumed")
        else:
            if session_id is not None and not self.adopt_sessions:
                return None, protocol_refusal(f"unknown session {session_id}")
            if self.admission is not None:
                refusal = self.admission.admit_session(
                    self.frontend.session_count
                )
                if refusal is not None:
                    return None, NetRefused(0, refusal)
            if session_id is None:
                session_id = self.frontend.open_session()
            else:
                self.frontend.adopt_session(session_id)
                self.counters.increment("sessions.adopted")
        self._publish_sessions()
        return session_id, Welcome(session_id)

    def _drain_refusal(self) -> protocol.Refused:
        self.counters.increment("shed")
        self.counters.increment("shed.drain")
        return protocol.Refused("server is draining", SHED_CODE, 0.05)

    async def _admit_and_dispatch(self, session_id: int, request: Request):
        """Admission gates, then the request's turn under the serving lock."""
        if self._draining:
            return NetRefused(request.request_id, self._drain_refusal())
        if self.admission is not None:
            refusal = self.admission.admit_request(self._queued)
            if refusal is not None:
                return NetRefused(request.request_id, refusal)
        # Mark the session busy while it waits and is served, so the idle
        # reaper cannot close it out from under a queued request.
        self.frontend.begin_request(session_id)
        try:
            async with self._turn():
                return await self._serve_one(session_id, request)
        except ReproError as exc:
            # execute() seals most refusals itself; reaching here means
            # the session is gone (reaped/closed), or a retransmission
            # acknowledges a write this member has not applied.
            refusal = classify(exc)
            retry_after = (self.frontend.health.retry_after
                           if refusal.retryable else -1.0)
            return NetRefused(request.request_id, protocol.Refused(
                f"{type(exc).__name__}: {exc}", refusal.code, retry_after,
            ))
        except Exception as exc:  # never let the loop die silently
            self.counters.increment("internal_errors")
            return NetRefused(request.request_id, protocol.Refused(
                f"internal error: {exc}", "internal", -1.0,
            ))
        finally:
            self.frontend.end_request(session_id)

    async def _serve_one(self, session_id: int, request: Request) -> Reply:
        """One sealed request, dedupe check to reply (lock held).

        A fresh reply is cached, with its mark, as soon as the engine pass
        returns: the write has happened, so a retransmission — also one
        after a kill in the barrier below — must be a dedupe, never a
        second engine request.  Fresh and deduped replies then settle the
        same way (:meth:`_settle`).
        """
        frontend, sealed, log = self.frontend, request.sealed, self._repl_log
        hit = frontend.lookup(session_id, sealed)
        if hit is None:
            sealed_reply, cacheable, mark = self._execute(session_id, request)
            if cacheable:
                frontend.remember(session_id, sealed, sealed_reply, mark)
            await self._settle(mark)
        else:
            sealed_reply, mark = hit
            await self._settle(mark)
            frontend.counters.increment("requests.duplicate")
        # The read-your-writes stamp: the sequence this member waited on
        # (or whose write it already held), never a later emission.  A
        # dedupe of another origin's write stamps 0: that seq is in the
        # other origin's numbering, and the gate proved it applied here.
        own = mark is not None and log is not None and mark[0] == log.origin
        return Reply(request.request_id, sealed_reply, mark[1] if own else 0)

    async def _settle(self, mark) -> None:
        """Wait until the write behind a reply's ``mark`` may be
        acknowledged.

        This member's own write — answered fresh or deduped — waits out
        the semi-sync barrier: every connected peer holds it before the
        reply goes out (on a timeout it goes out all the same).  Another
        origin's write must have been applied here (the dedupe gate): the
        origin may have died before its record streamed to this member,
        and serving the cached acknowledgement would let the session read
        stale state, so a timeout sheds; the origin's restart replays the
        record.
        """
        log = self._repl_log
        if mark is None or log is None:
            return
        origin, seq = mark
        if origin == log.origin:
            await log.wait_replicated(seq)
            return
        applier = self._repl_applier
        if not await self._applies.wait_until(
                lambda: applier.applied_for(origin) >= seq, log.wait_timeout):
            self.frontend.counters.increment("requests.duplicate_lagged")
            raise DegradedServiceError(
                "retransmitted request acknowledges a write not yet "
                "replicated to this member; retry", retry_after=0.2,
            )

    def _execute(self, session_id: int, request: Request):
        """The engine pass: ``(sealed reply, cacheable, mark)``.

        ``mark`` is the ``(origin, seq)`` of this member's log read right
        after the dispatch, in the same loop step, so it is this request's
        own emission (None for a refusal or off a replicated member).
        """
        hook = self._serve_hook
        if hook is not None:
            hook()
        with self.frontend.tracer.span("net.request",
                                       nbytes=len(request.sealed)):
            sealed_reply, cacheable = self.frontend.execute(session_id,
                                                            request.sealed)
        log = self._repl_log
        mark = None
        if cacheable and log is not None:
            mark = (log.origin, log.last_seq)
        return sealed_reply, cacheable, mark


class ServerThread(LoopThread):
    """Runs a :class:`PirServer` event loop on a background thread.

    Lets synchronous code (tests, benchmarks, the CLI) stand up a real
    TCP server in-process::

        with ServerThread(PirServer(frontend)) as handle:
            client = NetworkClient(handle.host, handle.port)

    Startup errors (bad config, port in use) re-raise from :meth:`start`
    on the calling thread.  ``drain()``/``__exit__`` run the server's
    graceful drain on the loop, then stop and join the thread; ``kill()``
    (:meth:`LoopThread.kill`) is the crash path.  A kill is a callback on
    the loop, so it lands between two loop steps and never inside an
    engine pass: a serve that has begun one finishes it and caches its
    reply first, so a retransmission after a restart is a dedupe, not a
    second engine request.  A serve parked in its semi-sync barrier is
    cancelled by the kill — applied, streamed and cached, but not
    answered; its retransmission waits out the barrier again and is
    answered from the cache.  The engine object survives a kill (same
    process), so a test can restart a fresh ``PirServer`` on the same
    frontend and port to model a process that crashed and came back.
    """

    def __init__(self, server: PirServer):
        super().__init__(server, "pir-server", server.drain)
        self.server = server

    drain = LoopThread.stop
