"""A batch of frames: one C-contiguous ``numpy.uint8`` matrix.

The stores hand frames around as ``count x frame_size`` matrices (see the
store contract in :mod:`repro.storage.disk`); callers that still hold
frames one by one — the baselines, the single-frame calls, tests — pass any
sequence of bytes-like rows.  :func:`frame_matrix` is the one place the two
spellings meet.  A store access names its frames by a sequence of
``(location, count)`` ranges whose frames sit back to back in one matrix;
:func:`range_rows` walks the two together.
"""

from __future__ import annotations

import numpy as np

from ..errors import StorageError

__all__ = ["frame_matrix", "frame_count", "range_rows", "check_ranges"]


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
