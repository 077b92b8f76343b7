"""A batch of frames: one C-contiguous ``numpy.uint8`` matrix.

The stores hand frames around as ``count x frame_size`` matrices (see the
store contract in :mod:`repro.storage.disk`); callers that still hold
frames one by one — set-up, the reshuffler, the baselines, tests — pass any
sequence of bytes-like rows.  :func:`frame_matrix` is the one place the two
spellings meet.
"""

from __future__ import annotations

import numpy as np

from ..errors import StorageError

__all__ = ["frame_matrix"]


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
