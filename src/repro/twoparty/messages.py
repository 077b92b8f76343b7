"""Wire format for the two-party protocol (owner <-> service provider).

The paper's prototype used Boost.Asio over WiFi; we define an explicit,
byte-accurate framing so the simulated channel can charge the network for
exactly the bytes a real deployment would move:

======  ============  ==========================================
opcode  message       body
======  ============  ==========================================
0x01    UPLOAD        u64 start, u32 count, count frames
0x02    UPLOAD_ACK    (empty)
0x03    READ_REQ      u64 block_start, u32 count, u64 extra_loc
0x04    READ_RESP     u32 count, count frames, 1 extra frame
0x05    WRITE_REQ     u64 block_start, u32 count, count frames,
                      u64 extra_loc, 1 extra frame
0x06    WRITE_ACK     (empty)
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

__all__ = [
    "Upload",
    "UploadAck",
    "ReadRequest",
    "ReadResponse",
    "WriteRequest",
    "WriteAck",
    "ErrorReply",
    "encode",
    "decode",
    "Message",
]

_OP_UPLOAD = 0x01
_OP_UPLOAD_ACK = 0x02
_OP_READ_REQ = 0x03
_OP_READ_RESP = 0x04
_OP_WRITE_REQ = 0x05
_OP_WRITE_ACK = 0x06
_OP_ERROR = 0x7F

_HEADER = struct.Struct(">B")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")


@dataclass(frozen=True)
class Upload:
    start: int
    frames: Tuple[bytes, ...]


@dataclass(frozen=True)
class UploadAck:
    pass


@dataclass(frozen=True)
class ReadRequest:
    block_start: int
    count: int
    extra_location: int


@dataclass(frozen=True)
class ReadResponse:
    frames: Tuple[bytes, ...]
    extra_frame: bytes


@dataclass(frozen=True)
class WriteRequest:
    block_start: int
    frames: Tuple[bytes, ...]
    extra_location: int
    extra_frame: bytes


@dataclass(frozen=True)
class WriteAck:
    pass


@dataclass(frozen=True)
class ErrorReply:
    message: str


Message = Union[
    Upload, UploadAck, ReadRequest, ReadResponse, WriteRequest, WriteAck, ErrorReply
]


def _join_frames(frame_size: int, *frames) -> bytes:
    """The bytes-like frames (``bytes`` or frame-matrix rows) back to back."""
    for frame in frames:
        if len(frame) != frame_size:
            raise ProtocolError(
                f"frame of {len(frame)} bytes violates negotiated size {frame_size}"
            )
    return b"".join(frames)


def encode(message: Message, frame_size: int) -> bytes:
    """Serialise a message; ``frame_size`` is the session's fixed frame size."""
    if isinstance(message, Upload):
        return (
            _HEADER.pack(_OP_UPLOAD)
            + _U64.pack(message.start)
            + _U32.pack(len(message.frames))
            + _join_frames(frame_size, *message.frames)
        )
    if isinstance(message, UploadAck):
        return _HEADER.pack(_OP_UPLOAD_ACK)
    if isinstance(message, ReadRequest):
        return (
            _HEADER.pack(_OP_READ_REQ)
            + _U64.pack(message.block_start)
            + _U32.pack(message.count)
            + _U64.pack(message.extra_location)
        )
    if isinstance(message, ReadResponse):
        return (
            _HEADER.pack(_OP_READ_RESP)
            + _U32.pack(len(message.frames))
            + _join_frames(frame_size, *message.frames, message.extra_frame)
        )
    if isinstance(message, WriteRequest):
        return (
            _HEADER.pack(_OP_WRITE_REQ)
            + _U64.pack(message.block_start)
            + _U32.pack(len(message.frames))
            + _join_frames(frame_size, *message.frames)
            + _U64.pack(message.extra_location)
            + _join_frames(frame_size, message.extra_frame)
        )
    if isinstance(message, WriteAck):
        return _HEADER.pack(_OP_WRITE_ACK)
    if isinstance(message, ErrorReply):
        body = message.message.encode("utf-8")
        return _HEADER.pack(_OP_ERROR) + _U32.pack(len(body)) + body
    raise ProtocolError(f"cannot encode message of type {type(message).__name__}")


def _take_frames(buffer: bytes, offset: int, count: int, frame_size: int
                 ) -> Tuple[Tuple[bytes, ...], int]:
    end = offset + count * frame_size
    if end > len(buffer):
        raise ProtocolError("message truncated while reading frames")
    frames = tuple(
        buffer[offset + i * frame_size : offset + (i + 1) * frame_size]
        for i in range(count)
    )
    return frames, end


def decode(buffer: bytes, frame_size: int) -> Message:
    """Parse one message; raises :class:`ProtocolError` on malformed input."""
    try:
        return _decode(buffer, frame_size)
    except struct.error as exc:
        # Truncated fixed-width fields surface here; normalise to the
        # protocol error the caller is contracted to handle.
        raise ProtocolError(f"truncated message: {exc}") from exc


def _decode(buffer: bytes, frame_size: int) -> Message:
    if not buffer:
        raise ProtocolError("empty message")
    opcode = buffer[0]
    body = buffer
    if opcode == _OP_UPLOAD:
        start = _U64.unpack_from(body, 1)[0]
        count = _U32.unpack_from(body, 9)[0]
        frames, end = _take_frames(body, 13, count, frame_size)
        _expect_end(body, end)
        return Upload(start, frames)
    if opcode == _OP_UPLOAD_ACK:
        _expect_end(body, 1)
        return UploadAck()
    if opcode == _OP_READ_REQ:
        if len(body) != 1 + 8 + 4 + 8:
            raise ProtocolError("bad READ_REQ length")
        block_start = _U64.unpack_from(body, 1)[0]
        count = _U32.unpack_from(body, 9)[0]
        extra = _U64.unpack_from(body, 13)[0]
        return ReadRequest(block_start, count, extra)
    if opcode == _OP_READ_RESP:
        count = _U32.unpack_from(body, 1)[0]
        frames, end = _take_frames(body, 5, count, frame_size)
        extra, end = _take_frames(body, end, 1, frame_size)
        _expect_end(body, end)
        return ReadResponse(frames, extra[0])
    if opcode == _OP_WRITE_REQ:
        block_start = _U64.unpack_from(body, 1)[0]
        count = _U32.unpack_from(body, 9)[0]
        frames, end = _take_frames(body, 13, count, frame_size)
        extra_location = _U64.unpack_from(body, end)[0]
        extra, end = _take_frames(body, end + 8, 1, frame_size)
        _expect_end(body, end)
        return WriteRequest(block_start, frames, extra_location, extra[0])
    if opcode == _OP_WRITE_ACK:
        _expect_end(body, 1)
        return WriteAck()
    if opcode == _OP_ERROR:
        length = _U32.unpack_from(body, 1)[0]
        if len(body) != 5 + length:
            raise ProtocolError("bad ERROR length")
        return ErrorReply(body[5 : 5 + length].decode("utf-8", errors="replace"))
    raise ProtocolError(f"unknown opcode 0x{opcode:02x}")


def _expect_end(buffer: bytes, end: int) -> None:
    if len(buffer) != end:
        raise ProtocolError(
            f"trailing garbage: message is {len(buffer)} bytes, parsed {end}"
        )
