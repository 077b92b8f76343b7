"""The envelope protocol, spoken in one place (DESIGN.md §12).

* **Typed message I/O** — :func:`read_message` / :func:`write_message` /
  :func:`exchange` and the dial :func:`open_stream` over asyncio streams,
  the ``*_sock`` mirrors and :func:`open_sock` over blocking sockets.  They
  are the only callers of the envelope codec, and they turn *every*
  transport fault — refused or reset connection, peer gone mid-frame,
  expired deadline — into :class:`~repro.errors.TransientChannelError` (a
  deadline into its subclass :class:`~repro.errors.NetTimeoutError`), so a
  caller triages one exception type; a malformed frame is a
  :class:`~repro.errors.ProtocolError`.

* **The connection state machine** — :class:`EnvelopeServer`, the base of
  :class:`~repro.net.server.PirServer` and
  :class:`~repro.cluster.router.ClusterRouter`.
"""

from __future__ import annotations

import asyncio
import socket

from .framing import (
    Bye,
    NetMessage,
    NetRefused,
    Ping,
    Pong,
    Request,
    decode_net_message,
    encode_net_message,
    read_frame_async,
    read_frame_sock,
    write_frame_async,
    write_frame_sock,
)
from ..errors import NetTimeoutError, ProtocolError, TransientChannelError
from ..loopthread import Listener
from ..service import protocol

__all__ = [
    "EnvelopeServer",
    "exchange",
    "exchange_sock",
    "open_sock",
    "open_stream",
    "protocol_refusal",
    "read_message",
    "read_message_sock",
    "write_message",
    "write_message_sock",
]


async def _guarded(awaitable, timeout, what: str):
    """Await stream I/O under an optional deadline, faults typed."""
    try:
        if timeout is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError as exc:
        raise NetTimeoutError(f"{what} timed out") from exc
    except OSError as exc:
        raise TransientChannelError(f"{what} failed: {exc}") from exc


async def open_stream(host: str, port: int, timeout: float):
    """Dial ``host:port``; returns the ``(reader, writer)`` pair."""
    return await _guarded(asyncio.open_connection(host, port), timeout,
                          f"connect to {host}:{port}")


async def read_message(reader, timeout=None) -> NetMessage:
    """The next message on the stream (within ``timeout``, if given)."""
    return decode_net_message(
        await _guarded(read_frame_async(reader), timeout, "read")
    )


async def write_message(writer, message: NetMessage) -> None:
    """Frame, write and drain one message."""
    await _guarded(write_frame_async(writer, encode_net_message(message)),
                   None, "write")


async def exchange(reader, writer, message: NetMessage,
                   timeout: float) -> NetMessage:
    """Send ``message``; the answer must arrive within ``timeout``."""
    await write_message(writer, message)
    return await read_message(reader, timeout)


def open_sock(host: str, port: int, connect_timeout: float,
              io_timeout: float) -> socket.socket:
    """Dial ``host:port``; reads and writes then run under ``io_timeout``."""
    try:
        sock = socket.create_connection((host, port),
                                        timeout=connect_timeout)
    except socket.timeout as exc:
        raise NetTimeoutError(f"connect to {host}:{port} timed out") from exc
    except OSError as exc:
        raise TransientChannelError(
            f"cannot connect to {host}:{port}: {exc}"
        ) from exc
    sock.settimeout(io_timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_message_sock(sock: socket.socket) -> NetMessage:
    """Blocking :func:`read_message`, under the socket's own timeout."""
    return decode_net_message(read_frame_sock(sock))


def write_message_sock(sock: socket.socket, message: NetMessage) -> None:
    """Blocking :func:`write_message`."""
    write_frame_sock(sock, encode_net_message(message))


def exchange_sock(sock: socket.socket, message: NetMessage) -> NetMessage:
    """Blocking :func:`exchange`."""
    write_message_sock(sock, message)
    return read_message_sock(sock)


def protocol_refusal(reason: str) -> NetRefused:
    """The non-retryable envelope refusal for a protocol violation."""
    return NetRefused(0, protocol.Refused(reason, "protocol", -1.0))


class EnvelopeServer(Listener):
    """One envelope connection, from first frame to close.

    A first frame of PING makes a probe connection, answered with the
    subclass's :meth:`pong` until the prober hangs up (sessionless, and
    answered while draining too — the PONG's flag is how a router learns
    to route around a member being rolled); anything else goes to
    :meth:`_open`.  A session then runs REQUEST → :meth:`_request`, BYE →
    :meth:`_bye` and close, any other frame → one ``protocol`` refusal
    and close.  A peer that closes, resets or goes quiet ends the
    connection silently and keeps its session for RESUME; a malformed
    frame gets a best-effort ``protocol`` refusal.  Subclasses count into
    ``counters`` under their own prefix.
    """

    def __init__(self, host: str, port: int, counters):
        super().__init__(host, port)
        self.counters = counters
        self._draining = False

    def pong(self) -> Pong:
        raise NotImplementedError

    async def _open(self, first: NetMessage, reader, writer):
        """``(session, answer)`` for the first non-PING frame: ``answer``
        (WELCOME, or the refusal when ``session`` is None) is sent by the
        caller; ``(None, None)`` when the connection was something else
        and has been served already."""
        raise NotImplementedError

    async def _request(self, session, request: Request, writer) -> None:
        """Serve one REQUEST and :meth:`_send` its answer."""
        raise NotImplementedError

    async def _bye(self, session) -> None:
        raise NotImplementedError

    def _drop(self, session) -> None:
        """The connection is gone, with or without a BYE before it."""

    async def handle(self, reader, writer) -> None:
        session = None
        try:
            first = await read_message(reader)
            if isinstance(first, Ping):
                await self._answer_probes(reader, writer, first)
                return
            session, answer = await self._open(first, reader, writer)
            if answer is not None:
                await self._send(writer, answer)
            while session is not None:
                body = await _guarded(read_frame_async(reader), None, "read")
                message = decode_net_message(body)
                if isinstance(message, Bye):
                    await self._bye(session)
                    break
                if not isinstance(message, Request):
                    await self._send(writer, protocol_refusal(
                        f"unexpected {type(message).__name__} frame"
                    ))
                    break
                self.counters.increment("requests")
                self.counters.increment("bytes.in", len(body) + 4)
                await self._request(session, message, writer)
        except TransientChannelError:
            pass  # the peer is gone; nothing to answer
        except ProtocolError as exc:
            await self._send(writer, protocol_refusal(str(exc)),
                             best_effort=True)
        finally:
            if session is not None:
                self._drop(session)

    async def _answer_probes(self, reader, writer, message) -> None:
        while True:
            if not isinstance(message, Ping):
                raise ProtocolError(
                    f"probe connection sent {type(message).__name__}"
                )
            self.counters.increment("probes")
            await self._send(writer, self.pong())
            message = await read_message(reader)

    async def _send(self, writer, message: NetMessage,
                    best_effort: bool = False) -> None:
        body = encode_net_message(message)
        # Counted before the write: once the bytes are on the wire the
        # client (same GIL) can read a metrics snapshot before this
        # coroutine runs another line.  A failed write overcounts by one
        # frame, which the connection teardown makes moot.
        self.counters.increment("bytes.out", len(body) + 4)
        try:
            await _guarded(write_frame_async(writer, body), None, "write")
        except TransientChannelError:
            if not best_effort:
                raise
