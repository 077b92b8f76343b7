"""Freshness authentication: a Merkle tree over the page frames.

The paper's threat model (§3.2) assumes an honest-but-curious server, so
per-frame MACs suffice there.  A production deployment should also resist
*rollback*: a malicious server could answer a read with an older frame for
the same location — its MAC still verifies.  The standard fix is a hash
tree over all locations whose nodes live in untrusted host memory while
only the 32-byte root stays inside the tamper boundary; every read is
checked against the root, every write refreshes its path.

:class:`MerkleTree` is the bare structure; :class:`AuthenticatedDisk` wraps
any disk-store object with transparent verify-on-read / update-on-write,
preserving the exact access interface the retrieval engine uses.  The tree
traffic itself is position-deterministic given the (already observable)
frame accesses, so it adds no access-pattern leakage.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

from .disk import StoreWrapper
from .frames import range_rows
from ..errors import AuthenticationError, StorageError

__all__ = ["MerkleTree", "AuthenticatedDisk"]

_HASH_SIZE = 32


def _hash_leaf(index: int, frame) -> bytes:
    """Leaf hash of a bytes-like frame (``bytes`` or a frame-matrix row)."""
    leaf = hashlib.blake2b(
        b"\x00" + index.to_bytes(8, "big"), digest_size=_HASH_SIZE
    )
    leaf.update(frame)
    return leaf.digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.blake2b(b"\x01" + left + right, digest_size=_HASH_SIZE).digest()


_EMPTY_LEAF = bytes(_HASH_SIZE)


class MerkleTree:
    """A perfect binary hash tree over ``num_leaves`` (padded to a power of 2).

    The node array models *untrusted host memory*: a verifier must never
    trust it directly — :meth:`verify` recomputes the path bottom-up from
    the candidate frame and the stored siblings and compares against a
    caller-held trusted root.
    """

    def __init__(self, num_leaves: int):
        if num_leaves <= 0:
            raise StorageError("merkle tree needs at least one leaf")
        self.num_leaves = num_leaves
        padded = 1
        while padded < num_leaves:
            padded *= 2
        self._padded = padded
        # Heap layout: node 1 is the root; leaves at [padded, 2 * padded).
        self._nodes: List[bytes] = [_EMPTY_LEAF] * (2 * padded)
        for position in range(padded - 1, 0, -1):
            self._nodes[position] = _hash_node(
                self._nodes[2 * position], self._nodes[2 * position + 1]
            )

    @property
    def root(self) -> bytes:
        """Current root (only meaningful when held by the trusted side)."""
        return self._nodes[1]

    def _leaf_position(self, index: int) -> int:
        if not 0 <= index < self.num_leaves:
            raise StorageError(f"leaf index {index} out of range")
        return self._padded + index

    # -- updates (trusted writer) ---------------------------------------------

    def update(self, index: int, frame: bytes) -> bytes:
        """Refresh one leaf and its path; returns the new root."""
        position = self._leaf_position(index)
        self._nodes[position] = _hash_leaf(index, frame)
        position //= 2
        while position >= 1:
            self._nodes[position] = _hash_node(
                self._nodes[2 * position], self._nodes[2 * position + 1]
            )
            position //= 2
        return self.root

    def update_range(self, start: int, frames: Sequence[bytes]) -> bytes:
        for offset, frame in enumerate(frames):
            self.update(start + offset, frame)
        return self.root

    # -- verification (trusted reader, untrusted nodes) --------------------------

    def proof(self, index: int) -> List[Tuple[bool, bytes]]:
        """Sibling path for a leaf: (sibling_is_right, sibling_hash) pairs."""
        position = self._leaf_position(index)
        path: List[Tuple[bool, bytes]] = []
        while position > 1:
            sibling_is_right = position % 2 == 0
            sibling = self._nodes[position + 1 if sibling_is_right else position - 1]
            path.append((sibling_is_right, sibling))
            position //= 2
        return path

    def verify(self, index: int, frame: bytes, trusted_root: bytes) -> bool:
        """Check ``frame`` at ``index`` against a *caller-held* root."""
        digest = _hash_leaf(index, frame)
        for sibling_is_right, sibling in self.proof(index):
            if sibling_is_right:
                digest = _hash_node(digest, sibling)
            else:
                digest = _hash_node(sibling, digest)
        return digest == trusted_root


class AuthenticatedDisk(StoreWrapper):
    """Freshness-verifying wrapper with the engine's disk interface.

    Holds the trusted root (conceptually inside the coprocessor); the
    Merkle nodes themselves model untrusted host memory.  Any replayed or
    altered frame fails verification on the next read with
    :class:`~repro.errors.AuthenticationError` — ``poke`` is the server
    tampering with its disk, so it forwards *without* refreshing the tree.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self._tree = MerkleTree(inner.num_locations)
        self._trusted_root = self._tree.root

    @property
    def trusted_root(self) -> bytes:
        return self._trusted_root

    def _verify(self, location: int, frame: bytes) -> None:
        if not self._tree.verify(location, frame, self._trusted_root):
            raise AuthenticationError(
                f"freshness check failed at location {location}: the server "
                "returned a stale or altered frame"
            )

    def read_ranges(self, ranges):
        frames = self.inner.read_ranges(ranges)
        for location, rows in range_rows(ranges, frames):
            for offset, frame in enumerate(rows):
                self._verify(location + offset, frame)
        return frames

    def write_ranges(self, ranges, frames) -> None:
        self.inner.write_ranges(ranges, frames)
        for location, rows in range_rows(ranges, frames):
            self._trusted_root = self._tree.update_range(location, rows)
