"""Network chaos: a fault-injecting TCP proxy for the serving stack.

:class:`ChaosProxy` sits between a client and a :class:`~repro.net.server
.PirServer` (or the cluster router) and misbehaves *deterministically*:
every frame passing through either direction is submitted to a
:class:`~repro.faults.injector.FaultInjector` at the transport sites
``net.c2s`` (client→server) and ``net.s2c`` (server→client), and the
injector's seeded decision stream picks which frames are dropped,
delayed, duplicated, torn mid-frame, or answered with a connection
reset.  The same seed and workload therefore produce the same chaos
schedule, which is what lets the failover tests assert exact outcomes
("the third reply is lost, the client retransmits, the duplicate is
served from the reply cache") instead of fishing for flakes.

The proxy is frame-granular on purpose: it re-parses the length-prefixed
framing (:mod:`repro.net.framing`) so a fault hits a *whole* protocol
unit, the way a lost TCP segment loses a request, not half a byte of
one.  ``fragment_bytes`` additionally re-chunks every forwarded frame
into tiny writes, exercising the receivers' fragmented-delivery handling
(a frame's length prefix split across reads, byte-at-a-time bodies).

Faults are injected at the *proxy*, not inside the server, so the full
production path is exercised: real sockets, real resets, the client's
reconnect-and-resume, the server's session retention.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from .injector import SITE_NET_C2S, SITE_NET_S2C, FaultInjector
from ..errors import ConfigurationError, TransientChannelError
from ..loopthread import Listener, LoopThread
from ..obs.registry import registry_or_private

__all__ = ["ChaosProxy", "ChaosProxyThread"]


def _framing():
    # Imported lazily: repro.net pulls in the service/core stack, and
    # repro.faults is itself imported by repro.core.engine — a module-
    # level import here would close that cycle during package init.
    from ..net import framing
    return framing


class ChaosProxy(Listener):
    """Fault-injecting TCP proxy; construct, then ``await start()``.

    Listens on ``host:port`` (port 0 = ephemeral), dials
    ``upstream_host:upstream_port`` once per accepted connection, and
    pumps frames both ways through the injector.  Counters:
    ``chaos.forwarded``, ``chaos.dropped``, ``chaos.delayed``,
    ``chaos.duplicated``, ``chaos.resets``, ``chaos.partials``.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        injector: FaultInjector,
        host: str = "127.0.0.1",
        port: int = 0,
        fragment_bytes: Optional[int] = None,
        metrics=None,
    ):
        if fragment_bytes is not None and fragment_bytes < 1:
            raise ConfigurationError("fragment_bytes must be positive")
        super().__init__(host, port)
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.injector = injector
        self.fragment_bytes = fragment_bytes
        self.counters = registry_or_private(metrics).counter_view("chaos.")

    start = Listener.listen
    stop = Listener.close

    async def sever_all(self) -> None:
        """Abort every live proxied connection; keep accepting new ones.

        Models a NAT table reset / transient network partition: both ends
        of each in-flight connection see a hard reset at the same moment,
        which is how the double-RESUME races are provoked (two clients of
        one session reconnect simultaneously).
        """
        self.counters.increment("severed", await self.cancel_connections())

    async def handle(self, client_reader, client_writer) -> None:
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            return
        self.counters.increment("connections")
        pumps = [
            asyncio.ensure_future(self._pump(
                client_reader, upstream_writer, SITE_NET_C2S,
                peer_writer=client_writer,
            )),
            asyncio.ensure_future(self._pump(
                upstream_reader, client_writer, SITE_NET_S2C,
                peer_writer=upstream_writer,
            )),
        ]
        try:
            # Either direction ending (peer closed, reset injected)
            # ends the whole connection: half-open proxied streams
            # only hide hangs.
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            # Close before the await: a second cancellation (the loop's
            # shutdown after a kill) may land on it and skip what follows.
            upstream_writer.close()
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)

    async def _pump(self, reader, writer, site: str, peer_writer) -> None:
        """Forward frames reader→writer, consulting the injector per frame."""
        framing = _framing()
        while True:
            try:
                body = await framing.read_frame_async(reader)
            except TransientChannelError:
                return
            decision = self.injector.check(site)
            try:
                if decision is None:
                    await self._forward(writer, body)
                elif decision.kind == "drop":
                    self.counters.increment("dropped")
                elif decision.kind == "delay":
                    self.counters.increment("delayed")
                    await asyncio.sleep(decision.delay)
                    await self._forward(writer, body)
                elif decision.kind == "duplicate":
                    self.counters.increment("duplicated")
                    await self._forward(writer, body)
                    await self._forward(writer, body)
                elif decision.kind == "reset":
                    self.counters.increment("resets")
                    self._abort(writer)
                    self._abort(peer_writer)
                    return
                elif decision.kind == "partial":
                    # A strict prefix, then a hard abort: the receiver
                    # sees a torn frame, never a clean close.
                    self.counters.increment("partials")
                    frame = framing.encode_frame(body)
                    writer.write(frame[:max(1, len(frame) // 2)])
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    self._abort(writer)
                    self._abort(peer_writer)
                    return
                else:
                    # Kinds meant for other sites (transient, corrupt,
                    # crash) have no transport meaning; forward intact.
                    await self._forward(writer, body)
            except (ConnectionError, OSError):
                return

    async def _forward(self, writer, body: bytes) -> None:
        frame = _framing().encode_frame(body)
        step = self.fragment_bytes or len(frame)
        for offset in range(0, len(frame), step):
            writer.write(frame[offset:offset + step])
            await writer.drain()
        self.counters.increment("forwarded")

    @staticmethod
    def _abort(writer) -> None:
        transport = writer.transport
        if transport is not None:
            transport.abort()


class ChaosProxyThread(LoopThread):
    """Runs a :class:`ChaosProxy` event loop on a background thread.

    The synchronous mirror of :class:`~repro.net.server.ServerThread`, so
    blocking tests can interpose chaos between a real client and server::

        with ChaosProxyThread(ChaosProxy(server_host, server_port,
                                         injector)) as chaos:
            client = NetworkClient(chaos.host, chaos.port)
    """

    def __init__(self, proxy: ChaosProxy):
        super().__init__(proxy, "chaos-proxy", proxy.stop)
        self.proxy = proxy

    def sever_all(self, timeout: float = 30.0) -> None:
        """Thread-safe :meth:`ChaosProxy.sever_all`."""
        if self._thread is not None and self._thread.is_alive():
            self.call(self.proxy.sever_all(), timeout)
