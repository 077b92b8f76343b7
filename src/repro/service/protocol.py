"""Client <-> secure-hardware wire protocol (the SSL link of Figure 1).

In the three-party model any client may query the database; requests and
replies travel over per-client SSL connections that terminate *inside* the
coprocessor, so the server never sees their contents — only their timing.
We model the link as an authenticated-encrypted channel: the codec below
defines the plaintext structure, and :class:`repro.service.frontend` wraps
each message in a per-session :class:`~repro.crypto.suite.CipherSuite`
frame, standing in for the TLS record layer.

========  ===========  ===========================================
opcode    message      body
========  ===========  ===========================================
0x10      QUERY        u64 page_id
0x11      UPDATE       u64 page_id, u32 len, payload
0x12      INSERT       u32 len, payload
0x13      DELETE       u64 page_id
0x14      BATCH        u32 count, count x (u32 len, encoded op)
0x20      RESULT       u64 page_id, u32 len, payload
0x21      OK           (empty)
0x22      BATCH_REPLY  u32 count, count x (u32 len, encoded reply)
0x2F      REFUSED      u32 len, utf-8 reason,
                       u32 len, utf-8 code, f64 retry_after
========  ===========  ===========================================

REFUSED carries a machine-readable ``code`` (a stable kebab-case slug per
error class, see :mod:`repro.service.health`) next to the display-text
reason, plus a ``retry_after`` hint in seconds (negative = no hint).  All
three fields are mandatory on the wire.

BATCH carries several operations (QUERY/UPDATE/INSERT/DELETE — batches do
not nest) inside one sealed session frame, amortising the per-message
session-crypto and channel overhead; the frontend answers with one
BATCH_REPLY whose i-th entry is the reply to the i-th operation.  Failures
are *per-operation*: a refused op yields a REFUSED entry (with its usual
machine-readable code) in that slot while the other operations proceed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple, Union

from ..errors import ProtocolError

__all__ = [
    "Query",
    "Update",
    "Insert",
    "Delete",
    "Batch",
    "Result",
    "Ok",
    "BatchReply",
    "Refused",
    "MAX_BATCH_OPS",
    "MAX_PAYLOAD_BYTES",
    "encode_client_message",
    "decode_client_message",
]

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

_OP_QUERY = 0x10
_OP_UPDATE = 0x11
_OP_INSERT = 0x12
_OP_DELETE = 0x13
_OP_BATCH = 0x14
_OP_RESULT = 0x20
_OP_OK = 0x21
_OP_BATCH_REPLY = 0x22
_OP_REFUSED = 0x2F

#: Upper bound on operations per BATCH — stops a single sealed message from
#: monopolising the engine (and bounds decode memory) while staying far
#: above any sensible amortisation sweet spot.
MAX_BATCH_OPS = 1024

#: Upper bound on any single length-prefixed field (payload, reason, code,
#: batch item).  The decoders check every u32 length against this cap
#: *before* trusting it, so a crafted prefix can neither trigger a huge
#: slice nor mask a structurally invalid message; it also keeps legal
#: messages inside what the network transport will carry
#: (:data:`repro.net.framing.MAX_FRAME_BYTES`).
MAX_PAYLOAD_BYTES = 4 * 1024 * 1024


def _check_length(length: int, what: str) -> int:
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"{what} length {length} exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit"
        )
    return length


@dataclass(frozen=True)
class Query:
    page_id: int


@dataclass(frozen=True)
class Update:
    page_id: int
    payload: bytes


@dataclass(frozen=True)
class Insert:
    payload: bytes


@dataclass(frozen=True)
class Delete:
    page_id: int


@dataclass(frozen=True)
class Batch:
    """Several operations sealed inside one session frame.

    ``ops`` may hold Query/Update/Insert/Delete messages only; nesting
    batches is a protocol error, as is an empty batch.
    """

    ops: Tuple["ClientMessage", ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))


@dataclass(frozen=True)
class Result:
    page_id: int
    payload: bytes


@dataclass(frozen=True)
class Ok:
    pass


@dataclass(frozen=True)
class BatchReply:
    """Positional replies to a :class:`Batch` — entry i answers op i."""

    replies: Tuple["ClientMessage", ...]

    def __post_init__(self):
        object.__setattr__(self, "replies", tuple(self.replies))


@dataclass(frozen=True)
class Refused:
    """The service declined the request.

    ``code`` is a stable machine-readable slug;
    ``retry_after`` suggests how long to back off before retrying, in
    seconds — negative means the refusal is not retryable / no hint.
    """

    reason: str
    code: str = ""
    retry_after: float = -1.0

    @property
    def retryable(self) -> bool:
        return self.retry_after >= 0.0


ClientMessage = Union[
    Query, Update, Insert, Delete, Batch, Result, Ok, BatchReply, Refused
]

_BATCH_OPS = (Query, Update, Insert, Delete)
_BATCH_REPLIES = (Result, Ok, Refused)


def _encode_items(opcode: int, items, allowed, kind: str) -> bytes:
    if not items:
        raise ProtocolError(f"empty {kind}")
    if len(items) > MAX_BATCH_OPS:
        raise ProtocolError(
            f"{kind} of {len(items)} exceeds the {MAX_BATCH_OPS}-op limit"
        )
    parts = [bytes([opcode]), _U32.pack(len(items))]
    for item in items:
        if not isinstance(item, allowed):
            raise ProtocolError(
                f"{kind} cannot carry {type(item).__name__}"
            )
        encoded = encode_client_message(item)
        parts.append(_U32.pack(_check_length(len(encoded), f"{kind} item")))
        parts.append(encoded)
    return b"".join(parts)


def _decode_items(buffer: bytes, allowed, kind: str):
    count = _U32.unpack_from(buffer, 1)[0]
    if count == 0:
        raise ProtocolError(f"empty {kind}")
    if count > MAX_BATCH_OPS:
        raise ProtocolError(
            f"{kind} of {count} exceeds the {MAX_BATCH_OPS}-op limit"
        )
    items = []
    offset = 5
    for _ in range(count):
        length = _check_length(_U32.unpack_from(buffer, offset)[0],
                               f"{kind} item")
        offset += 4
        if offset + length > len(buffer):
            raise ProtocolError(f"bad {kind} item length")
        item = _decode_client_message(buffer[offset : offset + length])
        if not isinstance(item, allowed):
            raise ProtocolError(f"{kind} cannot carry {type(item).__name__}")
        items.append(item)
        offset += length
    if offset != len(buffer):
        raise ProtocolError(f"trailing bytes after {kind}")
    return tuple(items)


def encode_client_message(message: ClientMessage) -> bytes:
    """Serialise one client-protocol message to its wire bytes."""
    if isinstance(message, Query):
        return bytes([_OP_QUERY]) + _U64.pack(message.page_id)
    if isinstance(message, Update):
        return (bytes([_OP_UPDATE]) + _U64.pack(message.page_id)
                + _U32.pack(_check_length(len(message.payload), "payload"))
                + message.payload)
    if isinstance(message, Insert):
        return (bytes([_OP_INSERT])
                + _U32.pack(_check_length(len(message.payload), "payload"))
                + message.payload)
    if isinstance(message, Delete):
        return bytes([_OP_DELETE]) + _U64.pack(message.page_id)
    if isinstance(message, Batch):
        return _encode_items(_OP_BATCH, message.ops, _BATCH_OPS, "batch")
    if isinstance(message, BatchReply):
        return _encode_items(
            _OP_BATCH_REPLY, message.replies, _BATCH_REPLIES, "batch reply"
        )
    if isinstance(message, Result):
        return (bytes([_OP_RESULT]) + _U64.pack(message.page_id)
                + _U32.pack(_check_length(len(message.payload), "payload"))
                + message.payload)
    if isinstance(message, Ok):
        return bytes([_OP_OK])
    if isinstance(message, Refused):
        reason = message.reason.encode("utf-8")
        code = message.code.encode("utf-8")
        return (bytes([_OP_REFUSED])
                + _U32.pack(len(reason)) + reason
                + _U32.pack(len(code)) + code
                + _F64.pack(message.retry_after))
    raise ProtocolError(f"cannot encode {type(message).__name__}")


def _take_payload(buffer: bytes, offset: int) -> bytes:
    length = _check_length(_U32.unpack_from(buffer, offset)[0], "payload")
    start = offset + 4
    if start + length != len(buffer):
        raise ProtocolError("payload length does not match message size")
    return buffer[start : start + length]


def decode_client_message(buffer: bytes) -> ClientMessage:
    """Parse wire bytes; raises :class:`ProtocolError` on malformed input."""
    try:
        return _decode_client_message(buffer)
    except struct.error as exc:
        raise ProtocolError(f"truncated client message: {exc}") from exc


def _decode_client_message(buffer: bytes) -> ClientMessage:
    if not buffer:
        raise ProtocolError("empty client message")
    opcode = buffer[0]
    if opcode == _OP_QUERY:
        if len(buffer) != 9:
            raise ProtocolError("bad QUERY length")
        return Query(_U64.unpack_from(buffer, 1)[0])
    if opcode == _OP_UPDATE:
        page_id = _U64.unpack_from(buffer, 1)[0]
        return Update(page_id, _take_payload(buffer, 9))
    if opcode == _OP_INSERT:
        return Insert(_take_payload(buffer, 1))
    if opcode == _OP_DELETE:
        if len(buffer) != 9:
            raise ProtocolError("bad DELETE length")
        return Delete(_U64.unpack_from(buffer, 1)[0])
    if opcode == _OP_BATCH:
        return Batch(_decode_items(buffer, _BATCH_OPS, "batch"))
    if opcode == _OP_BATCH_REPLY:
        return BatchReply(_decode_items(buffer, _BATCH_REPLIES, "batch reply"))
    if opcode == _OP_RESULT:
        page_id = _U64.unpack_from(buffer, 1)[0]
        return Result(page_id, _take_payload(buffer, 9))
    if opcode == _OP_OK:
        if len(buffer) != 1:
            raise ProtocolError("bad OK length")
        return Ok()
    if opcode == _OP_REFUSED:
        return _decode_refused(buffer)
    raise ProtocolError(f"unknown client opcode 0x{opcode:02x}")


def _decode_refused(buffer: bytes) -> Refused:
    length = _check_length(_U32.unpack_from(buffer, 1)[0], "REFUSED reason")
    offset = 5 + length
    if offset >= len(buffer):
        raise ProtocolError("bad REFUSED length")
    # The reason is display text; tolerate mangled bytes rather than
    # letting a corrupted reply crash the client.
    reason = buffer[5:offset].decode("utf-8", errors="replace")
    code_length = _check_length(_U32.unpack_from(buffer, offset)[0],
                                "REFUSED code")
    offset += 4
    if offset + code_length + _F64.size != len(buffer):
        raise ProtocolError("bad REFUSED length")
    code = buffer[offset : offset + code_length].decode("utf-8",
                                                        errors="replace")
    retry_after = _F64.unpack_from(buffer, offset + code_length)[0]
    return Refused(reason, code, retry_after)
