"""Batcher's odd-even merge sorting network: the oblivious permutation's
access schedule.

"Prior to query processing, the secure hardware encrypts and obliviously
permutes the database pages" (§3.1).  With only O(1) pages of working memory
inside the tamper boundary, writing page ``i`` straight to ``pi(i)`` would
reveal ``pi`` — so the permutation is realised as an *oblivious sort*: pages
are compare-exchanged along this network by secret per-epoch tags, and every
compare-exchange rewrites both frames with fresh nonces, so the server
cannot even tell whether a swap happened.  The network's access sequence
depends only on ``n``, never on the data; sorting by secret random tags
yields a uniformly random permutation.  Cost is O(n log^2 n)
compare-exchanges.

:class:`~repro.shuffle.online.OnlineReshuffler` is the one driver of the
network: an oblivious build (``setup_mode="oblivious"``) is its first
epoch, run to completion before the database serves (DESIGN.md §15).
"""

from __future__ import annotations

import functools
from typing import Iterator, Tuple

from ..errors import ConfigurationError

__all__ = ["batcher_network", "network_size"]


def batcher_network(n: int) -> Iterator[Tuple[int, int]]:
    """Yield the comparators (i, j), i < j, of Batcher's odd-even merge sort.

    Comparators whose upper index falls outside ``[0, n)`` are skipped; this
    is equivalent to padding with +infinity sentinel elements, which never
    move, so the network still sorts any n (not just powers of two).
    """
    if n <= 0:
        raise ConfigurationError("network size must be positive")
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        yield (i + j, i + j + k)
            k //= 2
        p *= 2


@functools.lru_cache(maxsize=None)
def network_size(n: int) -> int:
    """Number of comparators the network executes for ``n`` elements.

    Counted once per ``n`` and remembered: an epoch's last batch is
    recognised by it on every commit.
    """
    return sum(1 for _ in batcher_network(n))
