"""A batch of frames: one C-contiguous ``numpy.uint8`` matrix.

The stores hand frames around as ``count x frame_size`` matrices (see the
store contract in :mod:`repro.storage.disk`); callers that still hold
frames one by one — the baselines, the single-frame calls, tests — pass any
sequence of bytes-like rows.  :func:`frame_matrix` is the one place the two
spellings meet.  A store access names its frames by a sequence of
``(location, count)`` ranges whose frames sit back to back in one matrix;
:func:`range_rows` walks the two together.  The sealed records that carry
frames or trusted state, and every message that arrives on a wire, are
read through one bounds-checked :class:`RecordCursor`.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import StorageError

__all__ = ["frame_matrix", "frame_count", "range_rows", "check_ranges",
           "RecordCursor"]


def frame_matrix(frames, frame_size: int) -> np.ndarray:
    """``frames`` as a C-contiguous ``count x frame_size`` uint8 matrix.

    A matrix passes through uncopied; any other sequence of bytes-like rows
    is joined.  Rows of the wrong size raise :class:`StorageError`.
    """
    if isinstance(frames, np.ndarray) and frames.ndim == 2:
        if frames.shape[1] != frame_size or frames.dtype != np.uint8:
            raise StorageError(
                f"frames of {frames.shape[1]} x {frames.dtype} do not match "
                f"disk frame size {frame_size}"
            )
        return np.ascontiguousarray(frames)
    for frame in frames:
        if len(frame) != frame_size:
            raise StorageError(
                f"frame of {len(frame)} bytes does not match disk frame size "
                f"{frame_size}"
            )
    return np.frombuffer(b"".join(frames), np.uint8).reshape(
        len(frames), frame_size
    )


def frame_count(ranges) -> int:
    """How many frames the ``(location, count)`` ranges name together."""
    return sum(count for _, count in ranges)


def check_ranges(ranges, num_locations: int, frames=None) -> None:
    """Refuse ranges that are empty or leave the disk — and, given the
    matrix ``frames`` of a write, frames that do not fill them exactly."""
    for location, count in ranges:
        if count <= 0:
            raise StorageError("access count must be positive")
        if location < 0 or location + count > num_locations:
            raise StorageError(
                f"access [{location}, {location + count}) outside disk of "
                f"{num_locations} locations"
            )
    if frames is not None and frame_count(ranges) != len(frames):
        raise StorageError(
            f"{len(frames)} frames do not fill the ranges {list(ranges)}"
        )


def range_rows(ranges, frames):
    """Each range's location with its own rows of ``frames``, in order."""
    row = 0
    for location, count in ranges:
        yield location, frames[row : row + count]
        row += count


class RecordCursor:
    """Bounds-checked sequential reader: the one reader of records and
    wire messages.

    Sealed records read back after authentication — the intent header
    codecs (:mod:`repro.core.journal`), the RPL1 replication-record codec
    (:mod:`repro.cluster.replication`) and the sealed trusted state
    (:mod:`repro.hardware.trusted`) — and the three wire codecs, whose
    bytes are adversary input — the network envelope
    (:mod:`repro.net.framing`), the client protocol
    (:mod:`repro.service.protocol`) and the two-party messages
    (:mod:`repro.twoparty.messages`) — all decode through it, so every
    fixed-width field, flag byte and length-prefixed field has the same
    truncation behaviour: a read past the end raises ``error``
    (:class:`~repro.errors.StorageError` for a record,
    :class:`~repro.errors.ProtocolError` for the wire) instead of a bare
    ``struct.error`` / ``IndexError``.
    """

    def __init__(self, blob: bytes, offset: int = 0, error=StorageError):
        self.blob = blob
        self.offset = offset
        self.error = error

    def take_fields(self, fmt: struct.Struct) -> tuple:
        """Every field of one packed ``fmt`` record."""
        try:
            values = fmt.unpack_from(self.blob, self.offset)
        except struct.error as exc:
            raise self.error(f"record is truncated: {exc}") from exc
        self.offset += fmt.size
        return values

    def take(self, fmt: struct.Struct) -> int:
        return self.take_fields(fmt)[0]

    def take_byte(self) -> int:
        if self.offset >= len(self.blob):
            raise self.error("record is truncated")
        value = self.blob[self.offset]
        self.offset += 1
        return value

    def take_bytes(self, length: int) -> bytes:
        if length < 0 or self.offset + length > len(self.blob):
            raise self.error("record is truncated")
        value = self.blob[self.offset:self.offset + length]
        self.offset += length
        return value

    def take_prefixed(self, fmt: struct.Struct, limit: int, what: str
                      ) -> bytes:
        """A field behind its ``fmt`` length prefix.

        The length is held against ``limit`` before it is held against
        what is left, so a forged prefix is refused as over the limit
        whatever follows it; a field (or prefix) cut short is a ``bad
        {what} length``.
        """
        start = self.offset + fmt.size
        if start > len(self.blob):
            raise self.error(f"bad {what} length")
        (length,) = fmt.unpack_from(self.blob, self.offset)
        if length > limit:
            raise self.error(
                f"{what} length {length} exceeds the {limit}-byte limit"
            )
        if start + length > len(self.blob):
            raise self.error(f"bad {what} length")
        self.offset = start + length
        return self.blob[start:self.offset]

    def take_rest(self) -> bytes:
        """Everything left: a message's trailing opaque body."""
        value = self.blob[self.offset:]
        self.offset = len(self.blob)
        return value

    def expect_end(self, what: str) -> None:
        if self.offset != len(self.blob):
            raise self.error(f"trailing bytes in {what}")

    def expect_padding(self, what: str) -> None:
        """The rest of the blob must be the zero pad up to its public size."""
        pad = self.blob[self.offset:]
        if pad.count(0) != len(pad):
            raise self.error(f"trailing bytes in {what}")
