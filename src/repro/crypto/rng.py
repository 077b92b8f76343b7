"""Random number generation for the secure coprocessor.

Two requirements pull in different directions:

* the *algorithm's* security rests on the coprocessor's random choices
  (cache victim, in-block slot, rejection-sampled page id) being unpredictable
  to the server;
* the *experiments* must be reproducible, so every simulation accepts a seed.

:class:`SecureRandom` wraps a deterministic PRG seeded either from the OS
(``os.urandom``) for deployment-style use or from an explicit integer for
experiments.  The core generator is ChaCha-free by design: a simple
counter-mode SHA-256 PRG, which is plenty for simulation and keeps the
dependency surface at ``hashlib``.  All draws used by the retrieval algorithm
go through the small, audited surface below (``randrange``, ``shuffle``,
``token``), making it easy to see exactly what randomness the scheme consumes.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, MutableSequence, Optional, Sequence, Tuple, TypeVar

from ..errors import CryptoError

__all__ = ["SecureRandom"]

T = TypeVar("T")

_BLOCK = 32  # bytes per SHA-256 counter block
_REFILL_BLOCKS = 64  # the fewest blocks one refill computes


def _rejection_bounds(upper: int) -> Tuple[int, int]:
    """``(num_bytes, limit)`` of a draw in ``[0, upper)``: candidates are
    ``num_bytes`` big-endian bytes, kept when below ``limit`` (the largest
    multiple of ``upper`` they can represent), so there is no modulo bias."""
    num_bytes = (upper.bit_length() + 7) // 8
    span = 256**num_bytes
    return num_bytes, span - (span % upper)


class SecureRandom:
    """Deterministic (seedable) PRG with a CSPRNG-style interface.

    The stream is SHA-256 in counter mode over the seed — indistinguishable
    from random for any adversary that cannot invert SHA-256, and exactly
    reproducible given the seed.

    >>> a, b = SecureRandom(7), SecureRandom(7)
    >>> [a.randrange(100) for _ in range(4)] == [b.randrange(100) for _ in range(4)]
    True
    """

    def __init__(self, seed: Optional[int] = None):
        if seed is None:
            seed_bytes = os.urandom(32)
        else:
            if seed < 0:
                raise CryptoError("seed must be non-negative")
            seed_bytes = seed.to_bytes(32, "big", signed=False) if seed < 2**256 else (
                hashlib.sha256(str(seed).encode()).digest()
            )
        self._seed = seed_bytes
        self._counter = 0
        self._buffer = b""
        self._offset = 0

    # -- raw stream -----------------------------------------------------------

    def _refill(self, length: int) -> None:
        """Make at least ``length`` unread bytes available.

        The unread tail is kept and whole counter blocks are appended —
        at least :data:`_REFILL_BLOCKS` of them — so the stream is the
        same bytes in the same order whatever the readers ask for.
        """
        missing = length - (len(self._buffer) - self._offset)
        blocks = max(_REFILL_BLOCKS, -(-missing // _BLOCK))
        seed, first = self._seed, self._counter
        self._buffer = self._buffer[self._offset :] + b"".join([
            hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
            for counter in range(first, first + blocks)
        ])
        self._counter = first + blocks
        self._offset = 0

    def _read(self, length: int) -> bytes:
        """The next ``length`` bytes of the stream: every draw's one reader."""
        if self._offset + length > len(self._buffer):
            self._refill(length)
        start = self._offset
        self._offset = start + length
        return self._buffer[start : start + length]

    def token(self, length: int) -> bytes:
        """Return ``length`` pseudorandom bytes (used for nonces)."""
        if length < 0:
            raise CryptoError("token length must be non-negative")
        return self._read(length)

    # -- integers -------------------------------------------------------------

    def randrange(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)`` via rejection sampling (no modulo bias)."""
        if upper <= 0:
            raise CryptoError("randrange upper bound must be positive")
        if upper == 1:
            return 0
        num_bytes, limit = _rejection_bounds(upper)
        while True:
            candidate = int.from_bytes(self._read(num_bytes), "big")
            if candidate < limit:
                return candidate % upper

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise CryptoError("randint requires low <= high")
        return low + self.randrange(high - low + 1)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return self.randrange(1 << 53) / float(1 << 53)

    # -- sequences --------------------------------------------------------------

    def shuffle(self, items: MutableSequence[T]) -> None:
        """In-place Fisher-Yates shuffle.

        Draw ``i`` is ``randrange(i + 1)``, read straight out of the
        stream buffer: the same bytes, the same rejected candidates and
        the same stream position afterwards as calling it per draw.
        """
        if len(items) < 2:
            return
        num_bytes, _ = _rejection_bounds(len(items))
        span, low = 1 << (8 * num_bytes), 1 << (8 * num_bytes - 8)
        buffer, offset = self._buffer, self._offset
        for i in range(len(items) - 1, 0, -1):
            upper = i + 1
            if upper < low:  # one byte fewer from here on
                num_bytes, span, low = num_bytes - 1, span >> 8, low >> 8
            limit = span - span % upper
            while True:
                end = offset + num_bytes
                if end > len(buffer):
                    self._offset = offset
                    self._refill(num_bytes * i)
                    buffer, offset, end = self._buffer, 0, num_bytes
                candidate = int.from_bytes(buffer[offset:end], "big")
                offset = end
                if candidate < limit:
                    break
            j = candidate % upper
            items[i], items[j] = items[j], items[i]
        self._offset = offset

    def sample(self, population: Sequence[T], count: int) -> List[T]:
        """``count`` distinct elements drawn uniformly without replacement."""
        if count < 0 or count > len(population):
            raise CryptoError("sample size out of range")
        pool = list(population)
        for i in range(count):
            j = self.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]

    def choice(self, population: Sequence[T]) -> T:
        """One uniform element of a non-empty sequence."""
        if not population:
            raise CryptoError("choice from empty sequence")
        return population[self.randrange(len(population))]

    def spawn(self, label: str) -> "SecureRandom":
        """Derive an independent child generator (for parallel components)."""
        child_seed = hashlib.sha256(self._seed + b"spawn:" + label.encode()).digest()
        child = SecureRandom(0)
        child._seed = child_seed
        return child
