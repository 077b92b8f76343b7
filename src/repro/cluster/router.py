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
import collections
from typing import Dict, Optional, Sequence, Set

from .membership import BackendSpec, ClusterMembership
from ..errors import ConfigurationError, ProtocolError, TransientChannelError
from ..loopthread import LoopThread
from ..net.admission import SHED_CODE
from ..net.endpoint import (
    EnvelopeServer,
    exchange,
    open_stream,
    protocol_refusal,
    write_message,
)
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
)
from ..obs.registry import registry_or_private
from ..service import protocol

__all__ = ["ClusterRouter", "RouterThread"]


#: Seconds a failover candidate gets to catch up to a session's
#: read-your-writes watermark before the router tries another.
RYW_TIMEOUT = 5.0

#: One live router→backend connection carrying one pinned session.
_Upstream = collections.namedtuple("_Upstream", "address reader writer")


class _Route:
    """One client connection's session and the upstream carrying it
    (None between a backend failure and the RESUME that replaces it)."""

    def __init__(self, session_id: int, upstream: Optional[_Upstream]):
        self.session_id = session_id
        self.upstream = upstream


class ClusterRouter(EnvelopeServer):
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
        metrics=None,
    ):
        if probe_interval <= 0 or probe_timeout <= 0:
            raise ConfigurationError("probe interval/timeout must be positive")
        if connect_timeout <= 0 or backend_timeout <= 0:
            raise ConfigurationError(
                "connect/backend timeouts must be positive"
            )
        metrics = registry_or_private(metrics)
        super().__init__(host, port, metrics.counter_view("cluster."))
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.connect_timeout = connect_timeout
        self.backend_timeout = backend_timeout
        self.membership = ClusterMembership(
            backends, eject_after=eject_after, readmit_after=readmit_after,
            metrics=metrics,
        )
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
        self._probe_tasks: list = []
        self._stopping = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        await self.listen()
        loop = asyncio.get_running_loop()
        for state in self.membership.members:
            self._probe_tasks.append(
                loop.create_task(self._probe_loop(state.address))
            )

    async def stop(self) -> None:
        # Cooperative flag first: a probe loop that lost its cancellation
        # (see Listener.cancel_connections) re-checks it every iteration,
        # so a bare cancel-and-gather cannot wait on a zombie forever.
        self._stopping = True
        self._draining = True
        self.stop_accepting()
        for task in self._probe_tasks:
            task.cancel()
        if self._probe_tasks:
            await asyncio.gather(*self._probe_tasks, return_exceptions=True)
        self._probe_tasks = []
        await self.close()

    # -- health probing --------------------------------------------------------

    async def _probe_loop(self, address: str) -> None:
        """Ping one backend forever; one persistent probe connection,
        re-dialled after any failure."""
        reader = writer = None
        try:
            while not self._stopping:
                try:
                    if writer is None:
                        reader, writer = await self._dial(address)
                    pong = await exchange(reader, writer, Ping(),
                                          self.probe_timeout)
                    if not isinstance(pong, Pong):
                        raise ProtocolError(
                            f"probe answered with {type(pong).__name__}"
                        )
                    self.membership.record_probe_ok(
                        address, pong.draining, pong.sessions
                    )
                except (TransientChannelError, ProtocolError):
                    if writer is not None:
                        writer.close()
                        reader = writer = None
                    self.membership.record_probe_failure(address)
                await asyncio.sleep(self.probe_interval)
        finally:
            if writer is not None:
                writer.close()

    # -- backend connections ---------------------------------------------------

    async def _dial(self, address: str):
        spec = self.membership.member(address).spec
        return await open_stream(spec.host, spec.port, self.connect_timeout)

    async def _greet(self, address: str, opening):
        """Dial one member, send HELLO or RESUME, triage the answer.

        The caller reserved the member's load slot (``membership.pin``);
        every outcome but a WELCOME releases it and closes the connection.
        Returns ``(upstream, welcome)``, ``(None, refusal)``, or ``(None,
        None)`` for a member that is unreachable or answers with anything
        but a WELCOME or a refusal (a garbage frame included), which is
        also marked down — the caller tries a peer.  A shed refusal means
        "not me, maybe a peer" and is always safe to retry elsewhere: it
        mutated nothing.
        """
        writer = answer = None
        try:
            reader, writer = await self._dial(address)
            answer = await exchange(reader, writer, opening,
                                    self.backend_timeout)
            if not isinstance(answer, (Welcome, NetRefused)):
                raise ProtocolError(
                    f"backend answered {type(answer).__name__} to "
                    f"{type(opening).__name__}"
                )
        except (TransientChannelError, ProtocolError):
            answer = None
            self.membership.mark_down(address)
        finally:
            if not isinstance(answer, Welcome):
                self.membership.unpin(address)
                if writer is not None:
                    writer.close()
        if isinstance(answer, Welcome):
            return _Upstream(address, reader, writer), answer
        return None, answer

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
            # member.
            self.membership.pin(state.address)
            upstream, answer = await self._greet(state.address, hello)
            if upstream is not None:
                return upstream, answer
            if answer is not None:
                # The client only sees a shed when every member shed.
                if answer.refusal.code != SHED_CODE:
                    return None, answer
                last_refusal = answer

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
        waits up to :data:`RYW_TIMEOUT` per candidate, then tries another.
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
            upstream, answer = await self._greet(state.address,
                                                 Resume(session_id))
            if upstream is None:
                if answer is None or answer.refusal.code == SHED_CODE:
                    continue  # down or shedding; try a peer
                return None, answer
            if answer.session_id != session_id:
                self.membership.unpin(state.address)
                upstream.writer.close()
                raise ProtocolError(
                    f"backend resumed session {answer.session_id} "
                    f"!= {session_id}"
                )
            if state.address != pinned:
                self.counters.increment("failovers")
            self._record_pin(session_id, state.address)
            return upstream, None

    async def _backend_caught_up(self, state, needs: Dict[str, int]) -> bool:
        """Poll ``state`` until it has applied every origin past ``needs``.

        Opens a replication-query connection to the candidate and asks
        for its applied high-water mark per origin (the same REPL_QUERY
        the backends use for their catch-up handshake — the router sends
        and reads only plaintext metadata, never sealed record contents).
        Returns True once every origin's mark reaches the session's
        watermark, False after :data:`RYW_TIMEOUT` or on any transport or
        protocol failure (a candidate without replication enabled answers
        with a refusal and is simply rejected).
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + RYW_TIMEOUT
        writer = None
        try:
            reader, writer = await self._dial(state.address)
            while True:
                caught_up = True
                for origin, needed in needs.items():
                    answer = await exchange(reader, writer,
                                            ReplQuery(origin),
                                            self.probe_timeout)
                    if not isinstance(answer, ReplState):
                        return False
                    if answer.applied < needed:
                        caught_up = False
                if caught_up:
                    return True
                if loop.time() >= deadline:
                    return False
                await asyncio.sleep(0.02)
        except (TransientChannelError, ProtocolError):
            return False
        finally:
            if writer is not None:
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

    # -- client connections (the envelope hooks) -------------------------------

    async def handle(self, reader, writer) -> None:
        self.counters.increment("connections")
        await super().handle(reader, writer)

    def pong(self) -> Pong:
        """The router answers PINGs itself (ops checks, chained tiers)."""
        return Pong(self._draining, len(self._pins))

    async def _open(self, first, reader, writer):
        if isinstance(first, Hello):
            if self._draining:
                return None, self._no_members_refusal()
            upstream, answer = await self._open_new_session(first)
            if upstream is None:
                return None, answer
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
                await self._close_upstream(upstream)
                return None, NetRefused(0, protocol.Refused(
                    f"session id {session_id} collides across "
                    f"members; retry", SHED_CODE, 0.05,
                ))
            self._record_pin(session_id, upstream.address)
            self.counters.increment("sessions.routed")
            return _Route(session_id, upstream), answer
        if isinstance(first, Resume):
            upstream, refusal = await self._resume_session(first.session_id)
            if upstream is None:
                return None, refusal
            return (_Route(first.session_id, upstream),
                    Welcome(first.session_id))
        return None, protocol_refusal(
            f"unexpected {type(first).__name__} frame"
        )

    async def _request(self, route: _Route, request: Request,
                       writer) -> None:
        await self._send(writer, await self._relay(route, request))

    async def _bye(self, route: _Route) -> None:
        self._unpin(route.session_id)
        upstream, route.upstream = route.upstream, None
        if upstream is not None:
            await self._close_upstream(upstream)

    def _drop(self, route: _Route) -> None:
        # Without a BYE the session stays pinned for the client's RESUME.
        if route.upstream is not None:
            route.upstream.writer.close()

    async def _relay(self, route: _Route, request: Request):
        """One request round trip with failover; returns the reply message.

        ``route.upstream`` is replaced by a failover.  Retransmits the
        *identical* sealed request after every re-establishment; duplicate
        application is impossible wherever the backends share reply-cache
        visibility.
        """
        tried: Set[str] = set()
        while True:
            if route.upstream is None:
                route.upstream, refusal = await self._resume_session(
                    route.session_id, exclude=tried
                )
                if route.upstream is None:
                    return NetRefused(request.request_id, refusal.refusal)
                self.counters.increment("retransmits")
            upstream = route.upstream
            tried.add(upstream.address)
            try:
                answer = await exchange(upstream.reader, upstream.writer,
                                        request, self.backend_timeout)
            except TransientChannelError:
                self.membership.mark_down(upstream.address)
                upstream.writer.close()
                route.upstream = None
                continue
            if isinstance(answer, Reply):
                if answer.repl_seq > 0:
                    # Remember the highest replication sequence this
                    # session has seen acknowledged per origin backend —
                    # the read-your-writes watermark failover targets
                    # must reach before they may adopt the session.
                    marks = self._watermarks.setdefault(route.session_id, {})
                    if answer.repl_seq > marks.get(upstream.address, 0):
                        marks[upstream.address] = answer.repl_seq
                # The watermark is router-internal routing state; the
                # client gets the plain reply.
                return Reply(answer.request_id, answer.sealed)
            if isinstance(answer, NetRefused):
                if answer.refusal.code == SHED_CODE:
                    # Rolling restart or overload: the member shed the
                    # request, so it mutated nothing — move the session
                    # to a peer and retransmit there.
                    upstream.writer.close()
                    route.upstream = None
                    continue
                return answer
            raise ProtocolError(
                f"backend answered {type(answer).__name__} to a request"
            )

    @staticmethod
    async def _close_upstream(upstream: _Upstream) -> None:
        """Orderly BYE to the member, so it closes the session too."""
        try:
            await write_message(upstream.writer, Bye())
        except TransientChannelError:
            pass
        upstream.writer.close()


class RouterThread(LoopThread):
    """Runs a :class:`ClusterRouter` event loop on a background thread.

    The cluster mirror of :class:`~repro.net.server.ServerThread`::

        with RouterThread(ClusterRouter(specs)) as handle:
            client = NetworkClient(handle.host, handle.port)
    """

    def __init__(self, router: ClusterRouter):
        super().__init__(router, "pir-router", router.stop)
        self.router = router
