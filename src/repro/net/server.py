"""Asyncio TCP server bridging real sockets to the synchronous engine.

Architecture (DESIGN.md §12)::

    client sockets ──▶ asyncio event loop ──▶ bounded queue ──▶ worker
       (framing,        (EnvelopeServer +         (a _Lane)       threads
        envelope)        handshake, admission,                    (frontend
                         drain, reaping)                           .serve)

The event loop owns everything network-shaped: the listener and the
connection state machine (:class:`~repro.net.endpoint.EnvelopeServer`),
and, added here, the HELLO/WELCOME handshake that binds a connection to a
:class:`~repro.service.frontend.QueryFrontend` session, admission
control, and graceful drain.  The engine stays synchronous and is only
ever entered from worker threads (a :class:`_Lane`), which take sealed
requests off a bounded queue, run ``frontend.serve`` and resolve the
awaiting connection's future via ``loop.call_soon_threadsafe``.

Each connection serves one request at a time (the handler awaits the
reply before reading the next frame), so a session's stateful cipher
suite is never used by two threads at once.  ``workers=1`` (the default)
keeps the whole engine single-threaded as its contract requires;
``workers > 1`` is only accepted for :class:`~repro.core.sharded
.ShardedPirDatabase` backends, whose façade lock admits concurrent
callers.

Graceful drain: :meth:`PirServer.drain` stops accepting, answers new
requests on live connections with a retryable refusal, waits for every
in-flight request to finish *and its reply to be written*, then shuts
down workers and closes sessions — no admitted request is lost, and
because workers finish what they started, none is double-applied.
"""

from __future__ import annotations

import asyncio
import contextlib
import queue
import threading
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
from ..core.sharded import ShardedPirDatabase
from ..errors import ConfigurationError, ProtocolError, ReproError
from ..loopthread import LoopThread
from ..obs.registry import registry_or_private
from ..obs.tracer import NULL_TRACER
from ..service import protocol
from ..service.frontend import SESSION_SEQUENTIAL, QueryFrontend
from ..service.health import classify

__all__ = ["PirServer", "ServerThread"]

_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                    0.1, 0.25, 0.5, 1.0, 2.5)


#: The replication lane's one thread (the harness ledger keys on the name).
_REPL_WORKERS = ("pir-repl-worker",)


def _resolve(future: "asyncio.Future", result) -> None:
    if not future.cancelled():
        future.set_result(result)


class _Lane:
    """A bounded queue drained by named daemon threads.

    The event loop hands :meth:`submit` an item and awaits the future it
    gets back; a lane thread runs ``work(item)`` — which answers every
    failure with a value, never an exception — and resolves the future on
    its loop.  :class:`PirServer` has two lanes: serving and replication.
    """

    def __init__(self, depth: int, work):
        self.queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self._work = work
        self._threads: list = []

    def start(self, names) -> None:
        """One thread per name; a started lane is left alone."""
        if self._threads:
            return
        for name in names:
            thread = threading.Thread(target=self._run, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def submit(self, item) -> Optional["asyncio.Future"]:
        """Queue ``item``; None when the lane is full."""
        future = asyncio.get_running_loop().create_future()
        try:
            self.queue.put_nowait((item, future))
        except queue.Full:
            return None
        return future

    def stop(self, timeout: Optional[float] = None) -> None:
        """Let the threads finish what is queued, then join them."""
        for _ in self._threads:
            self.queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    def _run(self) -> None:
        while True:
            entry = self.queue.get()
            if entry is None:
                return
            item, future = entry
            result = self._work(item)
            try:
                future.get_loop().call_soon_threadsafe(_resolve, future,
                                                       result)
            except RuntimeError:
                # The loop was closed under us (ServerThread.kill in a
                # crash test); the connection is gone, nobody awaits this.
                return


class PirServer(EnvelopeServer):
    """Serves a :class:`QueryFrontend` over TCP (see module docstring).

    Construct, then ``await start()`` on a running event loop (or use
    :class:`ServerThread` from synchronous code).  ``queue_depth`` bounds
    the worker queue; requests beyond it — and beyond whatever gates the
    optional :class:`~repro.net.admission.AdmissionController` adds — are
    shed with a retryable refusal, never silently dropped.
    """

    def __init__(
        self,
        frontend: QueryFrontend,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        workers: int = 1,
        queue_depth: int = 64,
        reap_interval: Optional[float] = None,
        allow_sequential_sessions: bool = False,
        adopt_sessions: bool = False,
        metrics=None,
    ):
        if workers < 1:
            raise ConfigurationError("need at least one worker thread")
        if queue_depth < 1:
            raise ConfigurationError("queue_depth must be positive")
        if reap_interval is not None and reap_interval <= 0:
            raise ConfigurationError("reap_interval must be positive")
        if (frontend.session_id_mode == SESSION_SEQUENTIAL
                and not allow_sequential_sessions):
            raise ConfigurationError(
                "refusing to serve sequential session ids over the network "
                "(they are guessable and the id is the session secret); "
                "use session_id_mode=SESSION_RANDOM or pass "
                "allow_sequential_sessions=True"
            )
        if workers > 1 and not isinstance(frontend.database,
                                          ShardedPirDatabase):
            raise ConfigurationError(
                "workers > 1 requires a ShardedPirDatabase backend; the "
                "plain engine is single-threaded by contract"
            )
        metrics = registry_or_private(metrics)
        super().__init__(host, port, metrics.counter_view("net."))
        self.frontend = frontend
        self.admission = admission
        # Cluster backends adopt unknown RESUMEd session ids (failover);
        # public-facing servers must leave this off — see
        # QueryFrontend.adopt_session for the trust argument.
        self.adopt_sessions = adopt_sessions
        self.workers = workers
        self.reap_interval = reap_interval
        self._sessions_gauge = metrics.gauge("net.sessions.active")
        self._queue_gauge = metrics.gauge("net.queue.depth")
        self._latency = metrics.histogram("net.request.seconds",
                                          buckets=_LATENCY_BUCKETS)
        # The tracer is not thread-safe; with a single worker every span
        # (net.request wrapping frontend.serve and the engine's own spans)
        # is emitted from that one thread, so tracing composes.  With
        # multiple workers net spans are suppressed.
        self._span_tracer = frontend.tracer if workers == 1 else NULL_TRACER
        self._lane = _Lane(queue_depth, self._serve_one)
        # Inbound replication records get their own lane, never queued
        # behind a serve (attach_replication says why).
        self._repl_lane = _Lane(queue_depth, self._apply_one)
        self._reap_task: Optional[asyncio.Task] = None
        self._inflight = 0
        self._idle_event: Optional[asyncio.Event] = None
        # Test hook: called on the worker thread just before dispatching a
        # request to the frontend (drain-during-in-flight tests block here).
        self._serve_hook = None
        # Sealed write replication (cluster backends only; see
        # attach_replication).
        self._repl_log = None
        self._repl_applier = None

    def attach_replication(self, log, applier) -> None:
        """Wire a :class:`~repro.cluster.replication.ReplicationLog` and
        :class:`~repro.cluster.replication.ReplicationApplier` in.

        Afterwards this server (a) answers peer REPL_QUERY/REPL_RECORD
        connections, applying inbound records on a dedicated replication
        worker (serialized against the serving workers through the
        frontend's engine lock, so the engine still sees one operation
        at a time — but never queued *behind* a serve, or a barrier
        stalled waiting for a peer could starve the very applies that
        release the peer's own barriers: a distributed pool deadlock),
        (b) stamps every REPLY with the sequence its serve's barrier
        waited on, for the router's read-your-writes gate, and (c) holds
        each reply — on the worker thread, *before* it is cached or sent
        — until every *connected* peer has acked the emitted sequence:
        semi-synchronous replication, which is what makes an
        acknowledged write survive this backend's death.  The barrier
        must run before the reply enters the shared reply cache, or a
        surviving peer could dedupe-serve an acknowledgement for a write
        it never applied (a stale read after failover).
        """
        self._repl_log = log
        self._repl_applier = applier
        if self._server is not None:  # already serving
            self._repl_lane.start(_REPL_WORKERS)

        def _barrier():
            seq = log.last_seq
            log.wait_replicated(seq)
            return (log.origin, seq)

        def _gate(origin, seq):
            if origin == log.origin:
                return log.last_seq >= seq  # our own emission: we hold it
            return applier.wait_applied(origin, seq, log.wait_timeout)

        self.frontend.replication_barrier = _barrier
        self.frontend.replication_gate = _gate

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the worker threads."""
        await self.listen()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._lane.start(f"pir-worker-{i}" for i in range(self.workers))
        if self._repl_applier is not None:
            self._repl_lane.start(_REPL_WORKERS)
        if self.reap_interval is not None:
            self._reap_task = asyncio.ensure_future(self._reap_loop())

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close up.

        Idempotent.  After drain every session is closed and the worker
        threads have exited; live client connections are dropped (their
        next request would only be refused anyway).
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
        self._lane.stop()
        self._repl_lane.stop()
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

    def _publish_queue_depth(self) -> None:
        self._queue_gauge.set(self._lane.queue.qsize())

    @contextlib.contextmanager
    def _in_flight(self):
        """Work drain must wait for, on either lane."""
        self._inflight += 1
        self._idle_event.clear()
        try:
            yield
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle_event.set()

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
        catch-up handshake), and each REPL_RECORD is applied on the
        replication lane — the engine stays single-threaded per request,
        replicated or local — then acked with the new applied mark.  Apply
        is idempotent, so a shed or re-sent record is simply acked at the
        unchanged mark and the peer retransmits.
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
                applied = await self._apply_replicated(message)
                await self._send(writer, ReplAck(message.origin, applied))
            else:
                raise ProtocolError(
                    f"replication connection sent {type(message).__name__}"
                )
            message = await read_message(reader)

    async def _apply_replicated(self, record: ReplRecord) -> int:
        """Queue one inbound record for its lane; return the applied mark.

        While draining (or when the queue is full) the record is *not*
        applied and the current mark is returned unchanged — the peer's
        streamer sees a stale ack and retransmits after backoff.
        """
        if not self._draining:
            future = self._repl_lane.submit(record)
            if future is not None:
                self._publish_queue_depth()
                with self._in_flight():
                    return await future
            self.counters.increment("shed")
            self.counters.increment("shed.repl")
        return self._repl_applier.applied_for(record.origin)

    def _apply_one(self, record: ReplRecord) -> int:
        """Replication-lane work: apply one record on the lane's thread."""
        try:
            return self._repl_applier.apply(record.origin, record.seq,
                                            record.sealed)
        except BaseException:
            # Never wedge the peer's stream: ack the unchanged mark so
            # its streamer backs off and retransmits.
            return self._repl_applier.applied_for(record.origin)

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
        """Admission gates, then the serving lane's round trip."""
        if self._draining:
            return NetRefused(request.request_id, self._drain_refusal())
        if self.admission is not None:
            refusal = self.admission.admit_request(self._lane.queue.qsize())
            if refusal is not None:
                return NetRefused(request.request_id, refusal)
        # Mark the session busy for the whole queued-to-served window so
        # the idle reaper cannot close it out from under a queued request.
        self.frontend.begin_request(session_id)
        try:
            future = self._lane.submit((session_id, request))
            if future is None:
                self.counters.increment("shed")
                self.counters.increment("shed.queue")
                return NetRefused(request.request_id, protocol.Refused(
                    "request queue is full", SHED_CODE, 0.05,
                ))
            self._publish_queue_depth()
            return await future
        finally:
            self.frontend.end_request(session_id)

    def _serve_one(self, item):
        """Serving-lane work: one sealed request through the frontend."""
        session_id, request = item
        self._publish_queue_depth()
        hook = self._serve_hook
        if hook is not None:
            hook()
        try:
            with self._span_tracer.span("net.request",
                                        nbytes=len(request.sealed)):
                sealed_reply = self.frontend.serve(session_id,
                                                   request.sealed)
            # Stamp the reply with the (origin, seq) mark the serve's
            # replication barrier actually waited on, so the router's
            # read-your-writes watermark never runs ahead of what
            # connected peers hold.  log.last_seq at stamp time would
            # include other sessions' concurrent emissions that were
            # never waited on — a watermark a surviving peer may be
            # unable to satisfy until the dead origin restarts.  A
            # mark from a *different* origin (a dedupe served from the
            # shared cache for a write another member emitted) stamps
            # 0: the seq lives in that origin's numbering, and the
            # dedupe gate already proved this member applied it.
            mark = self.frontend.consume_reply_mark()
            repl_seq = 0
            if (self._repl_log is not None and mark is not None
                    and mark[0] == self._repl_log.origin):
                repl_seq = mark[1]
            return Reply(request.request_id, sealed_reply, repl_seq)
        except ReproError as exc:
            # serve() seals most refusals itself; reaching here means
            # the session is gone (reaped/closed) or similarly
            # unservable, so answer with a plaintext envelope refusal.
            refusal = classify(exc)
            retry_after = (self.frontend.health.retry_after
                           if refusal.retryable else -1.0)
            return NetRefused(request.request_id, protocol.Refused(
                f"{type(exc).__name__}: {exc}", refusal.code, retry_after,
            ))
        except BaseException as exc:  # never let a worker die silently
            return NetRefused(request.request_id, protocol.Refused(
                f"internal error: {exc}", "internal", -1.0,
            ))


class ServerThread(LoopThread):
    """Runs a :class:`PirServer` event loop on a background thread.

    Lets synchronous code (tests, benchmarks, the CLI) stand up a real
    TCP server in-process::

        with ServerThread(PirServer(frontend)) as handle:
            client = NetworkClient(handle.host, handle.port)

    Startup errors (bad config, port in use) re-raise from :meth:`start`
    on the calling thread.  ``drain()``/``__exit__`` run the server's
    graceful drain on the loop, then stop and join the thread.
    """

    def __init__(self, server: PirServer):
        super().__init__(server, "pir-server", server.drain)
        self.server = server

    drain = LoopThread.stop

    def kill(self, timeout: float = 30.0) -> None:
        """Abrupt shutdown: drop the listener and every connection NOW.

        The crash path, for chaos tests and failover drills — the inverse
        of :meth:`drain`.  No refusals are sent, in-flight requests are
        abandoned mid-write, clients see resets.  The engine object
        survives (same process), so a test can restart a fresh
        ``PirServer`` on the same frontend and port to model a process
        that crashed and came back.
        """
        if self._thread is None or self._loop is None:
            return
        loop = self._loop
        server = self.server

        def _slam() -> None:
            server.stop_accepting()
            for task in list(server._conn_tasks):
                task.cancel()
            if server._reap_task is not None:
                server._reap_task.cancel()
                server._reap_task = None
            # Let the cancellations run their finallys (writer.close)
            # before the loop stops; call_soon queues behind them.
            loop.call_soon(loop.stop)

        if self._thread.is_alive():
            try:
                loop.call_soon_threadsafe(_slam)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        # Workers block on their queue, not the loop; release them so the
        # process does not leak threads between restart cycles.
        server._lane.stop(timeout)
        server._repl_lane.stop(timeout)
        self._thread = None
