"""The stateless session router in front of N backend servers.

Speaks the :mod:`repro.net.framing` envelope on both faces.  A client
connects exactly as it would to a single :class:`~repro.net.server
.PirServer` — HELLO, WELCOME, sealed REQUEST/REPLY — and the router
pins its session to one backend, relaying frames verbatim.  Sealed
bytes are never opened: the router sits *outside* the tamper boundary
and learns only what the host server already learns (who talks, when,
how much).

Failure handling, in order of escalation:

* **Probing** — a background task per backend keeps a PING connection
  open and feeds :class:`~repro.cluster.membership.ClusterMembership`;
  ejected members receive no sessions until readmitted.
* **Failover** — when a relay hits a transport error (backend died) or
  a drain-shed from a member whose PONG says ``draining``, the router
  re-establishes the session on another member via RESUME (backends run
  with ``adopt_sessions=True`` — the session suite derives from the id,
  so any replica can serve it) and retransmits the identical sealed
  request.  The reply cache turns an already-applied request into its
  original reply, so the client sees one answer, applied once — it
  never learns a failover happened.
* **Give-up** — with no routable member left, the client gets a
  retryable envelope refusal, never a silent drop.

Exactly-once across failover requires the backends to share reply-cache
visibility (one :class:`~repro.service.frontend.SealedReplyCache` for
in-process deployments, a persistent cache per store for restarts); see
DESIGN.md §13 for the argument and its limits.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Sequence, Set

from .membership import BackendSpec, ClusterMembership
from ..errors import ConfigurationError, ProtocolError, TransientChannelError
from ..loopthread import LoopThread
from ..net.admission import SHED_CODE
from ..net.framing import (
    Bye,
    Hello,
    NetRefused,
    Ping,
    Pong,
    ReplQuery,
    ReplState,
    Reply,
    Request,
    Resume,
    Welcome,
    decode_net_message,
    encode_net_message,
    read_frame_async,
    write_frame_async,
)
from ..service import protocol
from ..sim.metrics import CounterSet

__all__ = ["ClusterRouter", "RouterThread"]


class _Upstream:
    """One live router→backend connection carrying one pinned session."""

    def __init__(self, address: str, reader, writer):
        self.address = address
        self.reader = reader
        self.writer = writer

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass


class ClusterRouter:
    """Routes envelope sessions across backends; see module docstring.

    Construct, then ``await start()`` on a running loop (or use
    :class:`RouterThread` from synchronous code).  ``backend_timeout``
    bounds how long a relayed request may wait on a backend before the
    router treats the backend as wedged and fails the session over —
    a hung process is as dead as a crashed one.
    """

    def __init__(
        self,
        backends: Sequence[BackendSpec],
        host: str = "127.0.0.1",
        port: int = 0,
        probe_interval: float = 0.2,
        probe_timeout: float = 2.0,
        eject_after: int = 3,
        readmit_after: int = 2,
        connect_timeout: float = 2.0,
        backend_timeout: float = 30.0,
        ryw_timeout: float = 5.0,
        metrics=None,
    ):
        if probe_interval <= 0 or probe_timeout <= 0:
            raise ConfigurationError("probe interval/timeout must be positive")
        if connect_timeout <= 0 or backend_timeout <= 0:
            raise ConfigurationError(
                "connect/backend timeouts must be positive"
            )
        if ryw_timeout <= 0:
            raise ConfigurationError("ryw_timeout must be positive")
        self.host = host
        self.port = port
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.connect_timeout = connect_timeout
        self.backend_timeout = backend_timeout
        self.ryw_timeout = ryw_timeout
        self.membership = ClusterMembership(
            backends, eject_after=eject_after, readmit_after=readmit_after,
            metrics=metrics,
        )
        self.counters = CounterSet(registry=metrics, prefix="cluster.")
        # session id -> backend address: lets a RESUME from a reconnecting
        # client land on the member already serving its session.
        self._pins: Dict[int, str] = {}
        # session id -> {origin address -> highest acked write sequence}:
        # the read-your-writes watermark, learned from the repl_seq each
        # REPLY carries.  Failover targets must have applied every origin
        # past these marks before they may adopt the session.
        self._watermarks: Dict[int, Dict[str, int]] = {}
        # Serializes (re-)adoption per session id: two concurrent RESUMEs
        # for one session must never be adopted by different replicas.
        self._adoption_locks: Dict[int, asyncio.Lock] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._probe_tasks: list = []
        self._conn_tasks: Set[asyncio.Task] = set()
        self._client_writers: Set = set()
        self._draining = False
        self._stopping = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise ConfigurationError("router already started")
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for state in self.membership.members:
            self._probe_tasks.append(
                loop.create_task(self._probe_loop(state.address))
            )

    async def stop(self) -> None:
        # Cooperative flag first: pre-3.12 asyncio.wait_for can swallow a
        # cancellation that races with the inner await completing
        # (python/cpython#86296), leaving a zombie loop that a bare
        # cancel-and-gather would wait on forever.  The loops re-check
        # the flag every iteration, so they exit even when the
        # CancelledError is lost.
        self._stopping = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            self._server = None
        for task in self._probe_tasks:
            task.cancel()
        if self._probe_tasks:
            await asyncio.gather(*self._probe_tasks, return_exceptions=True)
        self._probe_tasks = []
        for task in list(self._conn_tasks):
            task.cancel()
        # Closing the client transports unblocks any handler whose lost
        # cancellation left it parked on a client read.
        for writer in list(self._client_writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    # -- health probing --------------------------------------------------------

    async def _probe_loop(self, address: str) -> None:
        """Ping one backend forever; one persistent probe connection,
        re-dialled after any failure."""
        state = self.membership.member(address)
        reader = writer = None
        try:
            while not self._stopping:
                try:
                    if writer is None:
                        reader, writer = await asyncio.wait_for(
                            asyncio.open_connection(state.spec.host,
                                                    state.spec.port),
                            timeout=self.connect_timeout,
                        )
                    await write_frame_async(writer,
                                            encode_net_message(Ping()))
                    pong = decode_net_message(await asyncio.wait_for(
                        read_frame_async(reader), timeout=self.probe_timeout,
                    ))
                    if not isinstance(pong, Pong):
                        raise ProtocolError(
                            f"probe answered with {type(pong).__name__}"
                        )
                    self.membership.record_probe_ok(
                        address, pong.draining, pong.sessions
                    )
                except (OSError, asyncio.TimeoutError,
                        TransientChannelError, ProtocolError):
                    if writer is not None:
                        writer.close()
                        reader = writer = None
                    self.membership.record_probe_failure(address)
                await asyncio.sleep(self.probe_interval)
        except asyncio.CancelledError:
            pass
        finally:
            if writer is not None:
                writer.close()

    # -- backend connections ---------------------------------------------------

    async def _dial(self, address: str):
        state = self.membership.member(address)
        return await asyncio.wait_for(
            asyncio.open_connection(state.spec.host, state.spec.port),
            timeout=self.connect_timeout,
        )

    async def _open_new_session(self, hello: Hello):
        """Forward a HELLO to the best member; returns (upstream, welcome)
        or (None, refusal_message)."""
        tried: Set[str] = set()
        last_refusal = None
        while True:
            state = self.membership.pick(exclude=tried)
            if state is None:
                return None, (last_refusal or self._no_members_refusal())
            tried.add(state.address)
            # Reserve the load slot *before* awaiting the dial, or N
            # clients arriving together all pick the same least-loaded
            # member.  Released again on every non-Welcome outcome.
            self.membership.pin(state.address)
            try:
                reader, writer = await self._dial(state.address)
                await write_frame_async(writer, encode_net_message(hello))
                answer = decode_net_message(await asyncio.wait_for(
                    read_frame_async(reader), timeout=self.backend_timeout,
                ))
            except (OSError, asyncio.TimeoutError, TransientChannelError):
                self.membership.unpin(state.address)
                self.membership.mark_down(state.address)
                continue
            if isinstance(answer, Welcome):
                return _Upstream(state.address, reader, writer), answer
            self.membership.unpin(state.address)
            writer.close()
            if isinstance(answer, NetRefused):
                # A shed (drain or admission) means "not me, maybe a
                # peer" — try the next member; the client only sees the
                # refusal when every member shed.  Refusing a refused
                # request is always safe to retry elsewhere: it mutated
                # nothing.
                if answer.refusal.code == SHED_CODE:
                    last_refusal = answer
                    continue
                return None, answer
            raise ProtocolError(
                f"backend handshake answered {type(answer).__name__}"
            )

    async def _resume_session(self, session_id: int,
                              exclude: Sequence[str] = ()):
        """(Re-)establish ``session_id`` on a member via RESUME.

        Prefers the member the session is pinned to; otherwise — failover
        — the least-loaded routable member, which *adopts* the session.
        Returns (upstream, None) or (None, refusal_message).

        Adoption is serialized per session id: two RESUMEs racing for one
        session (client retries during a network partition) must not be
        adopted by different replicas, or each would see only half the
        session's writes.  The second RESUME waits here and then lands on
        whatever member the first one pinned.

        Failover targets are additionally held to the session's
        read-your-writes watermark: a replica may only adopt once it has
        applied every origin's replication stream past the session's last
        acknowledged write (:meth:`_backend_caught_up`).  The router
        waits up to ``ryw_timeout`` per candidate, then tries another.
        """
        lock = self._adoption_locks.setdefault(session_id, asyncio.Lock())
        async with lock:
            return await self._resume_session_locked(session_id, exclude)

    async def _resume_session_locked(self, session_id: int,
                                     exclude: Sequence[str] = ()):
        tried: Set[str] = set(exclude)
        pinned = self._pins.get(session_id)
        while True:
            state = None
            if (pinned is not None and pinned not in tried):
                candidate = self.membership.member(pinned)
                if candidate.routable:
                    state = candidate
            if state is None:
                state = self.membership.pick(exclude=tried)
            if state is None:
                return None, self._no_members_refusal()
            tried.add(state.address)
            self.membership.pin(state.address)  # reserve; see _open_new_session
            needs = {
                origin: seq
                for origin, seq in self._watermarks.get(session_id,
                                                        {}).items()
                if origin != state.address and seq > 0
            }
            if needs:
                self.counters.increment("ryw.checks")
                if not await self._backend_caught_up(state, needs):
                    # Never adopt a session onto a replica that lags the
                    # session's acknowledged writes — a stale read would
                    # be silent data loss from the client's view.
                    self.counters.increment("ryw.rejected")
                    self.membership.unpin(state.address)
                    continue
            try:
                reader, writer = await self._dial(state.address)
                await write_frame_async(
                    writer, encode_net_message(Resume(session_id))
                )
                answer = decode_net_message(await asyncio.wait_for(
                    read_frame_async(reader), timeout=self.backend_timeout,
                ))
            except (OSError, asyncio.TimeoutError, TransientChannelError):
                self.membership.unpin(state.address)
                self.membership.mark_down(state.address)
                continue
            if isinstance(answer, Welcome):
                if answer.session_id != session_id:
                    self.membership.unpin(state.address)
                    writer.close()
                    raise ProtocolError(
                        f"backend resumed session {answer.session_id} "
                        f"!= {session_id}"
                    )
                if state.address != pinned:
                    self.counters.increment("failovers")
                self._record_pin(session_id, state.address)
                return _Upstream(state.address, reader, writer), None
            self.membership.unpin(state.address)
            writer.close()
            if isinstance(answer, NetRefused):
                if answer.refusal.code == SHED_CODE:
                    continue  # shedding member; try a peer
                return None, answer
            raise ProtocolError(
                f"backend resume answered {type(answer).__name__}"
            )

    async def _backend_caught_up(self, state, needs: Dict[str, int]) -> bool:
        """Poll ``state`` until it has applied every origin past ``needs``.

        Opens a replication-query connection to the candidate and asks
        for its applied high-water mark per origin (the same REPL_QUERY
        the backends use for their catch-up handshake — the router sends
        and reads only plaintext metadata, never sealed record contents).
        Returns True once every origin's mark reaches the session's
        watermark, False after ``ryw_timeout`` or on any transport or
        protocol failure (a candidate without replication enabled answers
        with a refusal and is simply rejected).
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.ryw_timeout
        try:
            reader, writer = await self._dial(state.address)
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            while True:
                caught_up = True
                for origin, needed in needs.items():
                    await write_frame_async(
                        writer, encode_net_message(ReplQuery(origin))
                    )
                    answer = decode_net_message(await asyncio.wait_for(
                        read_frame_async(reader),
                        timeout=self.probe_timeout,
                    ))
                    if not isinstance(answer, ReplState):
                        return False
                    self.membership.record_repl_state(
                        state.address, origin, answer.applied
                    )
                    if answer.applied < needed:
                        caught_up = False
                if caught_up:
                    return True
                if loop.time() >= deadline:
                    return False
                await asyncio.sleep(0.02)
        except (OSError, asyncio.TimeoutError, TransientChannelError,
                ProtocolError):
            return False
        finally:
            writer.close()

    def _record_pin(self, session_id: int, address: str) -> None:
        """Point the session at ``address``, whose load slot the caller
        already reserved via ``membership.pin``; releases the previous
        member's slot (also when it *is* ``address`` — the reservation
        double-counted it)."""
        previous = self._pins.get(session_id)
        if previous is not None:
            self.membership.unpin(previous)
        self._pins[session_id] = address

    def _unpin(self, session_id: int) -> None:
        previous = self._pins.pop(session_id, None)
        if previous is not None:
            self.membership.unpin(previous)
        self._watermarks.pop(session_id, None)
        self._adoption_locks.pop(session_id, None)

    def _no_members_refusal(self) -> NetRefused:
        self.counters.increment("refused.no_members")
        return NetRefused(0, protocol.Refused(
            "no healthy cluster member", SHED_CODE, 0.5,
        ))

    # -- client connections ----------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._client_writers.add(writer)
        self.counters.increment("connections")
        upstream: Optional[_Upstream] = None
        session_id: Optional[int] = None
        try:
            first = decode_net_message(await read_frame_async(reader))
            if isinstance(first, Ping):
                await self._client_probe_loop(reader, writer, first)
                return
            if isinstance(first, Hello):
                if self._draining:
                    await self._send(writer, self._no_members_refusal())
                    return
                upstream, answer = await self._open_new_session(first)
                if upstream is None:
                    await self._send(writer, answer)
                    return
                session_id = answer.session_id
                if session_id in self._pins:
                    # Two members issued the same id — misconfigured
                    # same-seed frontends without distinct session salts.
                    # The id doubles as the key-agreement input, so two
                    # clients must never share one: tear down the
                    # duplicate and shed the client, whose retried HELLO
                    # draws the member's next (non-colliding) id.
                    self.counters.increment("session_collisions")
                    self.membership.unpin(upstream.address)
                    await self._close_session(upstream, None)
                    upstream = None
                    await self._send(writer, NetRefused(0, protocol.Refused(
                        f"session id {session_id} collides across "
                        f"members; retry", SHED_CODE, 0.05,
                    )))
                    return
                self._record_pin(session_id, upstream.address)
                self.counters.increment("sessions.routed")
                await self._send(writer, answer)
            elif isinstance(first, Resume):
                upstream, refusal = await self._resume_session(
                    first.session_id
                )
                if upstream is None:
                    await self._send(writer, refusal)
                    return
                session_id = first.session_id
                await self._send(writer, Welcome(session_id))
            else:
                await self._send(writer, NetRefused(0, protocol.Refused(
                    f"unexpected {type(first).__name__} frame",
                    "protocol", -1.0,
                )))
                return

            while not self._stopping:
                message = decode_net_message(await read_frame_async(reader))
                if isinstance(message, Bye):
                    await self._close_session(upstream, session_id)
                    upstream = None
                    break
                if not isinstance(message, Request):
                    await self._send(writer, NetRefused(0, protocol.Refused(
                        f"unexpected {type(message).__name__} frame",
                        "protocol", -1.0,
                    )))
                    break
                self.counters.increment("requests")
                upstream, reply = await self._relay(upstream, session_id,
                                                    message)
                await self._send(writer, reply)
        except (TransientChannelError, ConnectionError, OSError):
            pass  # client went away; the session stays pinned for RESUME
        except ProtocolError as exc:
            await self._send(
                writer,
                NetRefused(0, protocol.Refused(str(exc), "protocol", -1.0)),
                best_effort=True,
            )
        except asyncio.CancelledError:
            pass
        finally:
            if upstream is not None:
                upstream.close()
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            self._client_writers.discard(writer)
            self._conn_tasks.discard(task)

    async def _relay(self, upstream: Optional[_Upstream], session_id: int,
                     request: Request):
        """One request round trip with failover.

        Returns ``(upstream, reply_message)`` — the upstream may have
        been replaced by a failover.  Retransmits the *identical* sealed
        request after every re-establishment; duplicate application is
        impossible wherever the backends share reply-cache visibility.
        """
        body = encode_net_message(request)
        tried: Set[str] = set()
        while True:
            if upstream is None:
                upstream, refusal = await self._resume_session(
                    session_id, exclude=tried
                )
                if upstream is None:
                    return None, self._with_request_id(refusal, request)
                self.counters.increment("retransmits")
            tried.add(upstream.address)
            try:
                await write_frame_async(upstream.writer, body)
                answer = decode_net_message(await asyncio.wait_for(
                    read_frame_async(upstream.reader),
                    timeout=self.backend_timeout,
                ))
            except (OSError, asyncio.TimeoutError, TransientChannelError):
                self.membership.mark_down(upstream.address)
                upstream.close()
                upstream = None
                continue
            if isinstance(answer, Reply):
                if answer.repl_seq > 0:
                    # Remember the highest replication sequence this
                    # session has seen acknowledged per origin backend —
                    # the read-your-writes watermark failover targets
                    # must reach before they may adopt the session.
                    marks = self._watermarks.setdefault(session_id, {})
                    if answer.repl_seq > marks.get(upstream.address, 0):
                        marks[upstream.address] = answer.repl_seq
                # The watermark is router-internal routing state; the
                # client gets the plain reply.
                return upstream, Reply(answer.request_id, answer.sealed)
            if isinstance(answer, NetRefused):
                if answer.refusal.code == SHED_CODE:
                    # Rolling restart or overload: the member shed the
                    # request, so it mutated nothing — move the session
                    # to a peer and retransmit there.
                    upstream.close()
                    upstream = None
                    continue
                return upstream, answer
            raise ProtocolError(
                f"backend answered {type(answer).__name__} to a request"
            )

    @staticmethod
    def _with_request_id(refusal: NetRefused, request: Request) -> NetRefused:
        if refusal.request_id == request.request_id:
            return refusal
        return NetRefused(request.request_id, refusal.refusal)

    async def _close_session(self, upstream: Optional[_Upstream],
                             session_id: Optional[int]) -> None:
        if session_id is not None:
            self._unpin(session_id)
        if upstream is not None:
            try:
                await write_frame_async(upstream.writer,
                                        encode_net_message(Bye()))
            except (TransientChannelError, ConnectionError, OSError):
                pass
            upstream.close()

    async def _client_probe_loop(self, reader, writer, first) -> None:
        """The router answers PINGs itself (ops checks, chained tiers)."""
        message = first
        while not self._stopping:
            if not isinstance(message, Ping):
                raise ProtocolError(
                    f"probe connection sent {type(message).__name__}"
                )
            await self._send(
                writer, Pong(self._draining, len(self._pins))
            )
            message = decode_net_message(await read_frame_async(reader))

    async def _send(self, writer, message, best_effort: bool = False) -> None:
        try:
            await write_frame_async(writer, encode_net_message(message))
        except (TransientChannelError, ConnectionError, OSError):
            if not best_effort:
                raise TransientChannelError("client went away mid-reply")


class RouterThread(LoopThread):
    """Runs a :class:`ClusterRouter` event loop on a background thread.

    The cluster mirror of :class:`~repro.net.server.ServerThread`::

        with RouterThread(ClusterRouter(specs)) as handle:
            client = NetworkClient(handle.host, handle.port)
    """

    def __init__(self, router: ClusterRouter):
        super().__init__(router, "pir-router", router.stop)
        self.router = router
