"""Block cipher modes of operation.

Only CTR mode is needed by the system: pages are re-encrypted with a fresh
random nonce on every write-back (Figure 3, line 21), so a stream mode with
no padding is the natural fit.  CTR keystream blocks are ``E_K(nonce || ctr)``
with a 12-byte nonce and a 4-byte big-endian block counter, matching the
layout used by standard AES-CTR/GCM deployments.

The keystream is produced by materialising *every* counter block of a
message up front (strided writes into one preallocated buffer — no
per-block ``nonce + int.to_bytes`` concatenation) and pushing the whole
buffer through :meth:`repro.crypto.aes.AES.encrypt_blocks` in a single
call.  That keeps the per-block Python overhead out of the hot loop on
both the reference and the T-table/vectorised fast paths, and lets
:func:`ctr_keystream_batch` fuse the counter blocks of many frames into
one kernel entry (the rows of the :class:`repro.crypto.suite.CipherSuite`
keystream matrix on the aes backend, big enough for the numpy lane to
engage).
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from .aes import AES, BLOCK_SIZE
from ..errors import CryptoError

__all__ = [
    "ctr_transform",
    "ctr_keystream",
    "ctr_keystream_batch",
    "NONCE_SIZE",
]

NONCE_SIZE = 12  # bytes of random nonce per encryption; 4 bytes left for the counter


def _check_nonce_counter(nonce: bytes, initial_counter: int, length: int) -> int:
    """Validate one (nonce, counter, length) triple; returns the block count."""
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"CTR nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if initial_counter < 0:
        raise CryptoError("initial_counter must be non-negative")
    if length < 0:
        raise CryptoError("keystream length must be non-negative")
    block_count = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    if initial_counter + block_count > 2**32:
        raise CryptoError("CTR counter would overflow 32 bits for this message")
    return block_count


def _counter_blocks(
    buffer: bytearray, offset: int, nonce: bytes, initial_counter: int,
    block_count: int,
) -> None:
    """Fill ``buffer[offset:offset + 16*block_count]`` with counter blocks.

    Strided slice assignment materialises the repeated nonce and the packed
    big-endian counters in C, so building the blocks costs a constant number
    of Python operations regardless of message length.
    """
    end = offset + block_count * BLOCK_SIZE
    counters = struct.pack(
        f">{block_count}I",
        *range(initial_counter, initial_counter + block_count),
    )
    for index in range(NONCE_SIZE):
        buffer[offset + index : end : BLOCK_SIZE] = nonce[index:index + 1] * block_count
    for index in range(4):
        buffer[offset + NONCE_SIZE + index : end : BLOCK_SIZE] = counters[index::4]


def ctr_keystream(
    cipher: AES, nonce: bytes, length: int, initial_counter: int = 0
) -> bytes:
    """Raw CTR keystream bytes for one (key, nonce) pair.

    Exposed separately from :func:`ctr_transform` for callers that apply
    the XOR themselves (the cipher suite XORs a whole window's keystream
    matrix in one numpy pass); the per-block expansion — and therefore the
    bytes produced — is identical to the transform path.  The keyed
    ``cipher`` carries its round keys, so a batch shares one key schedule.
    """
    block_count = _check_nonce_counter(nonce, initial_counter, length)
    if block_count == 0:
        return b""
    buffer = bytearray(block_count * BLOCK_SIZE)
    _counter_blocks(buffer, 0, nonce, initial_counter, block_count)
    return cipher.encrypt_blocks(bytes(buffer))[:length]


def ctr_keystream_batch(
    cipher: AES,
    nonces: Sequence[bytes],
    lengths: Sequence[int],
    initial_counter: int = 0,
) -> List[bytes]:
    """Keystreams for many (nonce, length) pairs in one kernel entry.

    Byte-identical to calling :func:`ctr_keystream` per pair, but the
    counter blocks of every frame go through a single
    :meth:`~repro.crypto.aes.AES.encrypt_blocks` call — the whole batch
    crosses the 16-block numpy-lane threshold even when each individual
    frame is only a handful of blocks.
    """
    if len(nonces) != len(lengths):
        raise CryptoError("need exactly one length per nonce")
    block_counts = [
        _check_nonce_counter(nonce, initial_counter, length)
        for nonce, length in zip(nonces, lengths)
    ]
    total_blocks = sum(block_counts)
    if total_blocks == 0:
        return [b"" for _ in nonces]
    buffer = bytearray(total_blocks * BLOCK_SIZE)
    offset = 0
    for nonce, block_count in zip(nonces, block_counts):
        if block_count:
            _counter_blocks(buffer, offset, nonce, initial_counter, block_count)
            offset += block_count * BLOCK_SIZE
    stream = cipher.encrypt_blocks(bytes(buffer))
    out: List[bytes] = []
    offset = 0
    for length, block_count in zip(lengths, block_counts):
        out.append(stream[offset : offset + length])
        offset += block_count * BLOCK_SIZE
    return out


def ctr_transform(cipher: AES, nonce: bytes, data: bytes, initial_counter: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` under CTR mode (the operation is its own inverse).

    Parameters
    ----------
    cipher:
        A keyed :class:`~repro.crypto.aes.AES` instance.
    nonce:
        Exactly :data:`NONCE_SIZE` bytes.  Each (key, nonce) pair must be used
        for at most one message; :class:`repro.crypto.suite.CipherSuite` draws
        nonces from a CSPRNG per page write to enforce this.
    data:
        Arbitrary-length plaintext or ciphertext.
    initial_counter:
        Starting value of the 32-bit block counter (useful for seeking).
    """
    keystream = ctr_keystream(cipher, nonce, len(data), initial_counter)
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(keystream, "little")
    ).to_bytes(len(data), "little")
