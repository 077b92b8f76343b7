"""Client <-> secure-hardware wire protocol (the SSL link of Figure 1).

In the three-party model any client may query the database; requests and
replies travel over per-client SSL connections that terminate *inside* the
coprocessor, so the server never sees their contents — only their timing
and their sizes (the frame length still tells an op kind apart).
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
from ..storage.frames import RecordCursor

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
#: batch item).  The decoder reads each through
#: :meth:`~repro.storage.frames.RecordCursor.take_prefixed`, which checks
#: the u32 length against this cap *before* trusting it, so a crafted
#: prefix can neither trigger a huge slice nor mask a structurally invalid
#: message; it also keeps legal messages inside what the network transport
#: will carry (:data:`repro.net.framing.MAX_FRAME_BYTES`).
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
_NESTED_OPCODES = (bytes([_OP_BATCH]), bytes([_OP_BATCH_REPLY]))


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


def _decode_items(cursor: RecordCursor, allowed, kind: str):
    count = cursor.take(_U32)
    if count == 0:
        raise ProtocolError(f"empty {kind}")
    if count > MAX_BATCH_OPS:
        raise ProtocolError(
            f"{kind} of {count} exceeds the {MAX_BATCH_OPS}-op limit"
        )
    items = []
    for _ in range(count):
        encoded = cursor.take_prefixed(_U32, MAX_PAYLOAD_BYTES, f"{kind} item")
        # Batches do not nest: refuse one before decoding it, so a deep
        # nest is a ProtocolError rather than a RecursionError.
        if encoded[:1] in _NESTED_OPCODES:
            raise ProtocolError(f"{kind} cannot carry a batch")
        item = decode_client_message(encoded)
        if not isinstance(item, allowed):
            raise ProtocolError(f"{kind} cannot carry {type(item).__name__}")
        items.append(item)
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


def decode_client_message(buffer: bytes) -> ClientMessage:
    """Parse wire bytes; raises :class:`ProtocolError` on malformed input."""
    cursor = RecordCursor(buffer, error=ProtocolError)
    opcode = cursor.take_byte()
    if opcode == _OP_QUERY:
        message = Query(cursor.take(_U64))
    elif opcode == _OP_UPDATE:
        message = Update(cursor.take(_U64),
                         cursor.take_prefixed(_U32, MAX_PAYLOAD_BYTES,
                                              "payload"))
    elif opcode == _OP_INSERT:
        message = Insert(cursor.take_prefixed(_U32, MAX_PAYLOAD_BYTES,
                                              "payload"))
    elif opcode == _OP_DELETE:
        message = Delete(cursor.take(_U64))
    elif opcode == _OP_BATCH:
        message = Batch(_decode_items(cursor, _BATCH_OPS, "batch"))
    elif opcode == _OP_BATCH_REPLY:
        message = BatchReply(
            _decode_items(cursor, _BATCH_REPLIES, "batch reply")
        )
    elif opcode == _OP_RESULT:
        message = Result(cursor.take(_U64),
                         cursor.take_prefixed(_U32, MAX_PAYLOAD_BYTES,
                                              "payload"))
    elif opcode == _OP_OK:
        message = Ok()
    elif opcode == _OP_REFUSED:
        reason = cursor.take_prefixed(_U32, MAX_PAYLOAD_BYTES, "REFUSED")
        code = cursor.take_prefixed(_U32, MAX_PAYLOAD_BYTES, "REFUSED")
        # Reason and code are display text; tolerate mangled bytes rather
        # than letting a corrupted reply crash the client.
        message = Refused(str(reason, "utf-8", errors="replace"),
                          str(code, "utf-8", errors="replace"),
                          cursor.take(_F64))
    else:
        raise ProtocolError(f"unknown client opcode 0x{opcode:02x}")
    cursor.expect_end("client message")
    return message
