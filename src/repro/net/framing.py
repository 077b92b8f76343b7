"""Length-prefixed framing and the network envelope protocol.

Two layers live here, both below the sealed
:mod:`repro.service.protocol` messages:

* **Framing** — every transmission on the TCP stream is
  ``u32 length || body``.  The length prefix is validated against
  :data:`MAX_FRAME_BYTES` *before* any body bytes are read or allocated,
  so a garbage or hostile prefix (``0xFFFFFFFF`` from a port scanner, a
  desynchronised peer) costs four bytes of buffering, not 4 GiB.  Both
  sync-socket helpers (used by the blocking :class:`~repro.net.client
  .NetworkClient`, which the load generator drives too) and asyncio
  helpers (used by the server, the router and the replication streams)
  share the same checks.

* **Envelope messages** — a one-byte type tag plus body, carried inside a
  frame.  The envelope maps connections onto frontend sessions and carries
  admission-control refusals that must be readable *before* a session
  suite exists:

  ==========  ===========  ===============================================
  tag         message      body
  ==========  ===========  ===============================================
  0x01        HELLO        magic ``RPIR``, u8 protocol version
  0x02        WELCOME      u64 session id (the handshake's shared secret)
  0x03        REQUEST      u32 request id, sealed service-protocol bytes
  0x04        REPLY        u32 request id, u64 replication watermark,
                           sealed service-protocol bytes
  0x05        REFUSED      u32 request id, plaintext encoded
                           :class:`repro.service.protocol.Refused`
  0x06        BYE          (empty) — orderly session close
  0x07        PING         (empty) — health probe; no session required
  0x08        PONG         u8 flags (bit 0 = draining), u32 open sessions
  0x09        RESUME       u64 session id — re-attach after reconnect
  0x0A        REPL_RECORD  origin address, u64 sequence, sealed
                           replication record bytes
  0x0B        REPL_ACK     origin address, u64 highest contiguously
                           applied sequence from that origin
  0x0C        REPL_QUERY   origin address — "how far have you applied
                           that origin's stream?"
  0x0D        REPL_STATE   origin address, u64 applied sequence — the
                           answer to REPL_QUERY
  ==========  ===========  ===============================================

  Origin addresses in the REPL_* messages are u16-length-prefixed UTF-8
  ``host:port`` strings — a backend's advertised address doubles as its
  replication stream identity.  Every body is read through one
  :class:`~repro.storage.frames.RecordCursor`, like the sealed service
  messages it carries, so any malformed frame — cut short, too long, an
  over-cap or non-UTF-8 origin — is a :class:`~repro.errors.ProtocolError`.

  Request ids are per-connection client-chosen sequence numbers echoed in
  the matching REPLY/REFUSED, so a client that timed out and retransmitted
  can discard the late reply to an earlier transmission instead of
  desynchronising the stream.  Envelope REFUSED is plaintext because it
  carries no secrets (reason/code/retry-after) and must be expressible
  when no session exists yet (handshake shed) or when the server cannot
  seal (unknown/reaped session).

  PING/PONG carry the health-gated cluster membership (DESIGN.md §13): the
  router probes each backend on an interval and a backend answers on its
  event loop without touching the engine, so a wedged loop shows up as a
  probe timeout rather than a false "healthy".  PONG is plaintext for the same
  reason REFUSED is: it exists before any session does, and it carries
  nothing the connection pattern itself does not already reveal.

  The REPL_* messages carry DESIGN.md §13's sealed replication stream
  between cluster backends.  A connection whose first frame is REPL_QUERY
  or REPL_RECORD is a peer replication channel, not a client session: the
  sender streams sealed, sequence-numbered records and the receiver
  answers each with the highest sequence it has *contiguously* applied
  from that origin, which doubles as the catch-up cursor after a restart.
  Record bodies are sealed under the replica-shared master key and padded
  to a fixed size before sealing, so neither the router nor a network
  observer learns which requests were writes.  The REPLY watermark is the
  serving backend's own replication sequence after the request — plain
  u64, because it is a request *counter*, which connection-level traffic
  analysis already reveals; the router uses it for read-your-writes
  failover gating and strips it before forwarding to clients.

  RESUME replaces HELLO on a re-dialled connection: the client presents
  the session id from its original WELCOME and the server re-attaches the
  connection to that session's suite and reply cache, so a retransmitted
  sealed request dedupes instead of double-applying.  Cluster backends
  additionally *adopt* unknown resumed ids (the suite is a pure function
  of the id — see :func:`repro.service.frontend.session_master_key`),
  which is what lets the router fail a session over to a replica.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import Union

from ..errors import NetTimeoutError, ProtocolError, TransientChannelError
from ..service import protocol
from ..storage.frames import RecordCursor

__all__ = [
    "MAX_FRAME_BYTES",
    "NET_VERSION",
    "NET_MAGIC",
    "Hello",
    "Welcome",
    "Request",
    "Reply",
    "NetRefused",
    "Bye",
    "Ping",
    "Pong",
    "Resume",
    "ReplRecord",
    "ReplAck",
    "ReplQuery",
    "ReplState",
    "encode_net_message",
    "decode_net_message",
    "encode_frame",
    "read_frame_async",
    "write_frame_async",
    "read_frame_sock",
    "write_frame_sock",
]

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

#: Hard cap on one framed transmission.  Large enough for any sensible
#: sealed batch (a full-size BATCH of page-sized ops), small enough that a
#: hostile length prefix cannot make the server allocate unbounded memory.
#: Checked on both send and receive, before the body is read.
MAX_FRAME_BYTES = 16 * 1024 * 1024

NET_MAGIC = b"RPIR"
NET_VERSION = 1

_T_HELLO = 0x01
_T_WELCOME = 0x02
_T_REQUEST = 0x03
_T_REPLY = 0x04
_T_REFUSED = 0x05
_T_BYE = 0x06
_T_PING = 0x07
_T_PONG = 0x08
_T_RESUME = 0x09
_T_REPL_RECORD = 0x0A
_T_REPL_ACK = 0x0B
_T_REPL_QUERY = 0x0C
_T_REPL_STATE = 0x0D

_PONG_DRAINING = 0x01

#: Upper bound on an advertised ``host:port`` origin string; anything
#: longer than this in a REPL_* body is a desynchronised or hostile peer.
_MAX_ORIGIN_BYTES = 256


@dataclass(frozen=True)
class Hello:
    version: int = NET_VERSION


@dataclass(frozen=True)
class Welcome:
    session_id: int


@dataclass(frozen=True)
class Request:
    request_id: int
    sealed: bytes


@dataclass(frozen=True)
class Reply:
    """A sealed answer to one REQUEST.

    ``repl_seq`` is the serving backend's replication sequence this reply
    stands for — the one its semi-sync barrier waited on (0 when the
    backend has no replication attached, or for a dedupe of a write
    another member emitted).
    The cluster router records it per session as the read-your-writes
    floor for failover, and forwards clients a plain ``repl_seq == 0``
    reply so the watermark never leaves the cluster.
    """

    request_id: int
    sealed: bytes
    repl_seq: int = 0


@dataclass(frozen=True)
class NetRefused:
    """An envelope-level refusal (admission shed, drain, dead session).

    ``request_id`` echoes the refused REQUEST (0 for handshake-stage
    refusals); ``refusal`` reuses the service protocol's machine-readable
    :class:`~repro.service.protocol.Refused` shape, so clients surface it
    through the same :func:`~repro.service.health.error_for_refusal` path
    as a sealed refusal.
    """

    request_id: int
    refusal: protocol.Refused


@dataclass(frozen=True)
class Bye:
    pass


@dataclass(frozen=True)
class Ping:
    """Health probe.  Answered with :class:`Pong` outside any session."""


@dataclass(frozen=True)
class Pong:
    """Health probe answer.

    ``draining`` lets the router stop pinning *new* sessions to a member
    that is being rolled while its in-flight work finishes; ``sessions``
    is the member's open-session count, the router's least-loaded routing
    signal.
    """

    draining: bool
    sessions: int


@dataclass(frozen=True)
class Resume:
    """Re-attach a re-dialled connection to an existing session."""

    session_id: int


@dataclass(frozen=True)
class ReplRecord:
    """One sealed replication record from ``origin``'s stream."""

    origin: str
    seq: int
    sealed: bytes


@dataclass(frozen=True)
class ReplAck:
    """Receiver's highest contiguously applied sequence from ``origin``.

    An ack below the sequence just sent means the receiver did not apply
    the record (it is draining, the record failed authentication, or it
    was not the next in sequence); the streamer backs off and retransmits
    — records are idempotent under sequence tracking.
    """

    origin: str
    seq: int


@dataclass(frozen=True)
class ReplQuery:
    """Ask a backend how far it has applied ``origin``'s stream."""

    origin: str


@dataclass(frozen=True)
class ReplState:
    """Answer to :class:`ReplQuery`: applied sequence for ``origin``."""

    origin: str
    applied: int


NetMessage = Union[
    Hello, Welcome, Request, Reply, NetRefused, Bye, Ping, Pong, Resume,
    ReplRecord, ReplAck, ReplQuery, ReplState,
]


def _encode_origin(origin: str) -> bytes:
    encoded = origin.encode("utf-8")
    if len(encoded) > _MAX_ORIGIN_BYTES:
        raise ProtocolError(
            f"origin address of {len(encoded)} bytes exceeds the "
            f"{_MAX_ORIGIN_BYTES}-byte cap"
        )
    return _U16.pack(len(encoded)) + encoded


def encode_net_message(message: NetMessage) -> bytes:
    """Serialise one envelope message (the body of a frame)."""
    if isinstance(message, Hello):
        return bytes([_T_HELLO]) + NET_MAGIC + bytes([message.version])
    if isinstance(message, Welcome):
        return bytes([_T_WELCOME]) + _U64.pack(message.session_id)
    if isinstance(message, Request):
        return (bytes([_T_REQUEST]) + _U32.pack(message.request_id)
                + message.sealed)
    if isinstance(message, Reply):
        return (bytes([_T_REPLY]) + _U32.pack(message.request_id)
                + _U64.pack(message.repl_seq) + message.sealed)
    if isinstance(message, NetRefused):
        return (bytes([_T_REFUSED]) + _U32.pack(message.request_id)
                + protocol.encode_client_message(message.refusal))
    if isinstance(message, Bye):
        return bytes([_T_BYE])
    if isinstance(message, Ping):
        return bytes([_T_PING])
    if isinstance(message, Pong):
        flags = _PONG_DRAINING if message.draining else 0
        return bytes([_T_PONG, flags]) + _U32.pack(message.sessions)
    if isinstance(message, Resume):
        return bytes([_T_RESUME]) + _U64.pack(message.session_id)
    if isinstance(message, ReplRecord):
        return (bytes([_T_REPL_RECORD]) + _encode_origin(message.origin)
                + _U64.pack(message.seq) + message.sealed)
    if isinstance(message, ReplAck):
        return (bytes([_T_REPL_ACK]) + _encode_origin(message.origin)
                + _U64.pack(message.seq))
    if isinstance(message, ReplQuery):
        return bytes([_T_REPL_QUERY]) + _encode_origin(message.origin)
    if isinstance(message, ReplState):
        return (bytes([_T_REPL_STATE]) + _encode_origin(message.origin)
                + _U64.pack(message.applied))
    raise ProtocolError(f"cannot encode {type(message).__name__}")


def decode_net_message(body: bytes) -> NetMessage:
    """Parse a frame body; raises :class:`ProtocolError` on malformed input."""
    cursor = RecordCursor(body, error=ProtocolError)
    tag = cursor.take_byte()
    if tag == _T_HELLO:
        if cursor.take_bytes(len(NET_MAGIC)) != NET_MAGIC:
            raise ProtocolError("malformed HELLO")
        message = Hello(cursor.take_byte())
    elif tag == _T_WELCOME:
        message = Welcome(cursor.take(_U64))
    elif tag == _T_REQUEST:
        message = Request(cursor.take(_U32), cursor.take_rest())
    elif tag == _T_REPLY:
        request_id, repl_seq = cursor.take(_U32), cursor.take(_U64)
        message = Reply(request_id, cursor.take_rest(), repl_seq)
    elif tag == _T_REFUSED:
        request_id = cursor.take(_U32)
        refusal = protocol.decode_client_message(cursor.take_rest())
        if not isinstance(refusal, protocol.Refused):
            raise ProtocolError("REFUSED envelope without Refused body")
        message = NetRefused(request_id, refusal)
    elif tag == _T_BYE:
        message = Bye()
    elif tag == _T_PING:
        message = Ping()
    elif tag == _T_PONG:
        flags, sessions = cursor.take_byte(), cursor.take(_U32)
        message = Pong(bool(flags & _PONG_DRAINING), sessions)
    elif tag == _T_RESUME:
        message = Resume(cursor.take(_U64))
    elif _T_REPL_RECORD <= tag <= _T_REPL_STATE:
        encoded = cursor.take_prefixed(_U16, _MAX_ORIGIN_BYTES,
                                       "origin address")
        try:
            origin = encoded.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("origin address is not UTF-8") from None
        if tag == _T_REPL_RECORD:
            message = ReplRecord(origin, cursor.take(_U64), cursor.take_rest())
        elif tag == _T_REPL_ACK:
            message = ReplAck(origin, cursor.take(_U64))
        elif tag == _T_REPL_QUERY:
            message = ReplQuery(origin)
        else:
            message = ReplState(origin, cursor.take(_U64))
    else:
        raise ProtocolError(f"unknown network message tag 0x{tag:02x}")
    cursor.expect_end("network message")
    return message


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _check_frame_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return length


def encode_frame(body: bytes) -> bytes:
    """Prefix ``body`` with its length; refuses oversized bodies."""
    return _U32.pack(_check_frame_length(len(body))) + body


async def read_frame_async(reader) -> bytes:
    """Read one frame from an :class:`asyncio.StreamReader`.

    The length prefix is validated before the body is awaited, so an
    oversized prefix is rejected without buffering the claimed payload.
    Raises :class:`TransientChannelError` when the peer closes mid-frame.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise TransientChannelError("connection closed") from exc
        raise TransientChannelError("connection closed mid-frame") from exc
    length = _check_frame_length(_U32.unpack(prefix)[0])
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TransientChannelError("connection closed mid-frame") from exc


async def write_frame_async(writer, body: bytes) -> None:
    """Write one frame to an :class:`asyncio.StreamWriter` and drain."""
    writer.write(encode_frame(body))
    await writer.drain()


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as exc:
            raise NetTimeoutError("socket read deadline expired") from exc
        except OSError as exc:
            raise TransientChannelError(f"socket receive failed: {exc}") from exc
        if not chunk:
            raise TransientChannelError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sock(sock: socket.socket) -> bytes:
    """Blocking read of one frame from a connected socket.

    Mirrors :func:`read_frame_async`: the length prefix is validated
    against :data:`MAX_FRAME_BYTES` before any body byte is read.
    """
    length = _check_frame_length(_U32.unpack(_recv_exactly(sock, 4))[0])
    return _recv_exactly(sock, length)


def write_frame_sock(sock: socket.socket, body: bytes) -> None:
    """Blocking write of one frame to a connected socket."""
    try:
        sock.sendall(encode_frame(body))
    except socket.timeout as exc:
        raise NetTimeoutError("socket send deadline expired") from exc
    except OSError as exc:
        raise TransientChannelError(f"socket send failed: {exc}") from exc
