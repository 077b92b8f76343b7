"""Wire format for the two-party protocol (owner <-> service provider).

The paper's prototype used Boost.Asio over WiFi; we define an explicit,
byte-accurate framing so the simulated channel can charge the network for
exactly the bytes a real deployment would move.  The owner's two messages
are the store's two verbs (:mod:`repro.storage.disk`) — a list of
``(location, count)`` ranges, with the ranges' frames back to back on the
write side — so one request is one READ_RANGES and one WRITE_RANGES round
trip whatever its window, and the setup upload is a WRITE_RANGES of one
range:

======  ============  ==========================================
opcode  message       body
======  ============  ==========================================
0x01    READ_RANGES   u32 n, n x (u64 location, u32 count)
0x02    FRAMES        u32 count, count frames
0x03    WRITE_RANGES  u32 n, n x (u64 location, u32 count),
                      sum(count) frames
0x04    ACK           (empty)
0x7F    ERROR         u32 len, utf-8 message
======  ============  ==========================================

All frames have the fixed size negotiated at session setup, so counts fully
determine body lengths.  Integers are big-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple, Union

from ..errors import ProtocolError
from ..storage.frames import RecordCursor, frame_count

__all__ = [
    "MAX_RANGES",
    "ReadRanges",
    "Frames",
    "WriteRanges",
    "Ack",
    "ErrorReply",
    "encode",
    "decode",
    "Message",
]

_OP_READ_RANGES = 0x01
_OP_FRAMES = 0x02
_OP_WRITE_RANGES = 0x03
_OP_ACK = 0x04
_OP_ERROR = 0x7F

_HEADER = struct.Struct(">B")
_U32 = struct.Struct(">I")
_RANGE = struct.Struct(">QI")

# The most ranges one message may name: a request's window is a block plus
# one frame per op, so this is far above any window the engine forms and
# far below what a hostile count could make the decoder build.
MAX_RANGES = 1 << 16

Ranges = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ReadRanges:
    ranges: Ranges


@dataclass(frozen=True)
class Frames:
    frames: bytes  # whole frames, back to back


@dataclass(frozen=True)
class WriteRanges:
    ranges: Ranges
    frames: bytes  # the ranges' frames, back to back


@dataclass(frozen=True)
class Ack:
    pass


@dataclass(frozen=True)
class ErrorReply:
    message: str


Message = Union[ReadRanges, Frames, WriteRanges, Ack, ErrorReply]


def _pack_ranges(ranges: Ranges) -> bytes:
    if len(ranges) > MAX_RANGES:
        raise ProtocolError(
            f"{len(ranges)} ranges exceed the {MAX_RANGES}-range bound"
        )
    try:
        return _U32.pack(len(ranges)) + b"".join(
            [_RANGE.pack(location, count) for location, count in ranges]
        )
    except struct.error as exc:
        raise ProtocolError(f"range does not fit the wire: {exc}") from exc


def _frame_count(frames: bytes, frame_size: int) -> int:
    count, partial = divmod(len(frames), frame_size)
    if partial:
        raise ProtocolError(
            f"{len(frames)} bytes of frames violate negotiated size {frame_size}"
        )
    return count


def encode(message: Message, frame_size: int) -> bytes:
    """Serialise a message; ``frame_size`` is the session's fixed frame size."""
    if isinstance(message, ReadRanges):
        return _HEADER.pack(_OP_READ_RANGES) + _pack_ranges(message.ranges)
    if isinstance(message, Frames):
        count = _frame_count(message.frames, frame_size)
        return _HEADER.pack(_OP_FRAMES) + _U32.pack(count) + message.frames
    if isinstance(message, WriteRanges):
        wanted = sum(count for _, count in message.ranges)
        if _frame_count(message.frames, frame_size) != wanted:
            raise ProtocolError(
                f"{len(message.frames)} bytes of frames do not fill the "
                f"{wanted} frames of the ranges"
            )
        return (
            _HEADER.pack(_OP_WRITE_RANGES)
            + _pack_ranges(message.ranges)
            + message.frames
        )
    if isinstance(message, Ack):
        return _HEADER.pack(_OP_ACK)
    if isinstance(message, ErrorReply):
        body = message.message.encode("utf-8")
        return _HEADER.pack(_OP_ERROR) + _U32.pack(len(body)) + body
    raise ProtocolError(f"cannot encode message of type {type(message).__name__}")


def decode(buffer: bytes, frame_size: int) -> Message:
    """Parse one message; raises :class:`ProtocolError` on malformed input."""
    cursor = RecordCursor(buffer, error=ProtocolError)
    opcode = cursor.take_byte()
    if opcode in (_OP_READ_RANGES, _OP_WRITE_RANGES):
        count = cursor.take(_U32)
        if count > MAX_RANGES:
            raise ProtocolError(
                f"{count} ranges exceed the {MAX_RANGES}-range bound"
            )
        ranges = tuple(cursor.take_fields(_RANGE) for _ in range(count))
        if opcode == _OP_READ_RANGES:
            message = ReadRanges(ranges)
        else:
            frames = cursor.take_bytes(frame_count(ranges) * frame_size)
            message = WriteRanges(ranges, frames)
    elif opcode == _OP_FRAMES:
        message = Frames(cursor.take_bytes(cursor.take(_U32) * frame_size))
    elif opcode == _OP_ACK:
        message = Ack()
    elif opcode == _OP_ERROR:
        text = cursor.take_bytes(cursor.take(_U32))
        message = ErrorReply(str(text, "utf-8", errors="replace"))
    else:
        raise ProtocolError(f"unknown opcode 0x{opcode:02x}")
    cursor.expect_end("message")
    return message
