"""The data owner of the two-party model: the "secure hardware" is a server.

In the outsourcing setting (§3.1) the owner is the only client, so the
tamper-resistant coprocessor is unnecessary: the owner's own machine —
physically isolated from the provider — runs the cache, page map, keys and
the Figure-3 algorithm, while the encrypted pages live at the provider.

:class:`RemoteDisk` adapts the wire protocol to the engine's storage
interface: the store's two verbs are the wire's two requests, so each
request's accesses are exactly one READ and one WRITE round trip (as in the
paper's prototype) whatever its window, which is what makes the network —
not the RTT count — the bottleneck of Figure 7.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np

from . import messages
from .channel import SimulatedChannel
from ..core.database import SETUP_DIRECT, _create, _wire
from ..core.engine import RetrievalEngine
from ..core.params import SystemParameters
from ..core.snapshot import decode_manifest, encode_manifest
from ..errors import PageDeletedError, ProtocolError
from ..hardware.coprocessor import SecureCoprocessor
from ..hardware.specs import HardwareSpec
from ..sim.clock import VirtualClock
from ..storage.disk import RangeAccess
from ..storage.frames import check_ranges, frame_count, frame_matrix

__all__ = ["RemoteDisk", "DataOwner"]

_UPLOAD_BATCH = 512


class RemoteDisk(RangeAccess):
    """Engine-facing storage adapter that speaks the wire protocol: each
    of the store's two verbs is one message and one round trip."""

    def __init__(self, channel: SimulatedChannel, num_locations: int, frame_size: int):
        self.channel = channel
        self.num_locations = num_locations
        self.frame_size = frame_size
        self.current_request = -1  # engine attribution hook; unused remotely

    def _call(self, message: messages.Message, expected: type):
        response = self.channel.call(messages.encode(message, self.frame_size))
        reply = messages.decode(response, self.frame_size)
        if isinstance(reply, messages.ErrorReply):
            raise ProtocolError(f"provider error: {reply.message}")
        if not isinstance(reply, expected):
            raise ProtocolError(
                f"expected {expected.__name__}, got {type(reply).__name__}"
            )
        return reply

    def read_ranges(self, ranges) -> np.ndarray:
        reply = self._call(messages.ReadRanges(tuple(ranges)), messages.Frames)
        wanted = frame_count(ranges)
        if len(reply.frames) != wanted * self.frame_size:
            raise ProtocolError(
                f"provider returned {len(reply.frames) // self.frame_size} "
                f"frames, expected {wanted}"
            )
        # The store contract's matrix, in a buffer the caller owns.
        return np.frombuffer(bytearray(reply.frames), np.uint8).reshape(
            wanted, self.frame_size
        )

    def write_ranges(self, ranges, frames) -> None:
        frames = frame_matrix(frames, self.frame_size)
        self._call(
            messages.WriteRanges(tuple(ranges), frames.tobytes()), messages.Ack
        )

    def check_readable(self, ranges) -> None:
        """The bounds half of a read's validation, without a round trip;
        whether a location was ever written only the provider knows."""
        check_ranges(ranges, self.num_locations)

    def flush(self) -> None:
        """Nothing to push down: the provider acknowledged every write."""

    def close(self) -> None:
        """Nothing to release: the frames stay at the provider, where a
        resumed owner finds them."""


def _owner_wiring(channel_factory, clock, owner_spec) -> dict:
    """What every owner passes the one builder: its clock, its machine's
    spec, and a store that is a :class:`RemoteDisk` over a fresh channel.

    The owner's machine replaces the coprocessor: no PCI link or slow
    crypto ASIC in the loop (the network dominates instead), so the owner
    spec defaults to a fast commodity server.
    """

    def disk_factory(num_locations, frame_size, timing, clock, trace):
        channel = channel_factory(clock, frame_size, num_locations)
        return RemoteDisk(channel, num_locations, frame_size)

    return dict(
        clock=clock,
        spec=owner_spec if owner_spec is not None else HardwareSpec(
            secure_memory=2**62,
            link_bandwidth=float("inf"),
            crypto_throughput=100e6,
        ),
        disk_factory=disk_factory,
    )


class DataOwner:
    """Owner-side state: keys, cache, page map, and the retrieval engine."""

    def __init__(
        self,
        params: SystemParameters,
        coprocessor: SecureCoprocessor,
        remote: RemoteDisk,
        engine: RetrievalEngine,
    ):
        self.params = params
        self.cop = coprocessor
        self.remote = remote
        self.engine = engine

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        cache_capacity: int,
        channel_factory,
        target_c: float = 2.0,
        page_capacity: int = 1024,
        reserve_fraction: float = 0.0,
        block_size: Optional[int] = None,
        clock: Optional[VirtualClock] = None,
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
        master_key: bytes = b"owner-master-key",
        owner_spec: Optional[HardwareSpec] = None,
        rollback_protection: bool = False,
    ) -> "DataOwner":
        """Build owner state and upload the permuted encrypted database.

        ``channel_factory(clock, frame_size, num_locations)`` must return a
        connected :class:`SimulatedChannel`; the session module provides the
        standard wiring against a fresh :class:`ServiceProvider`.  The same
        setup as :meth:`PirDatabase.create` — permute in trusted owner
        memory, encrypt, upload in batches — over a remote store.  With
        ``rollback_protection`` the owner keeps a Merkle root over the
        provider's frames, so a *malicious* provider replaying stale data
        is caught on read — the natural hardening for the outsourcing
        model, where the paper's honest-but-curious assumption is least
        comfortable.
        """
        return cls(*_create(
            records, cache_capacity, target_c, page_capacity,
            reserve_fraction, block_size,
            setup_mode=SETUP_DIRECT, write_batch=_UPLOAD_BATCH,
            master_key=master_key, seed=seed, cipher_backend=cipher_backend,
            rollback_protection=rollback_protection,
            **_owner_wiring(channel_factory, clock, owner_spec),
        ))

    # -- operations (same surface as PirDatabase) ---------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self.cop.clock

    def query(self, page_id: int) -> bytes:
        page = self.engine.retrieve(page_id)
        if self.cop.state.is_deleted(page_id):
            raise PageDeletedError(f"page {page_id} is deleted")
        return page.payload

    def update(self, page_id: int, payload: bytes) -> None:
        self.engine.modify(page_id, payload)

    def insert(self, payload: bytes) -> int:
        return self.engine.insert(payload)

    def delete(self, page_id: int) -> None:
        self.engine.delete(page_id)

    def owner_storage_bytes(self) -> int:
        """RAM the owner dedicates to the scheme (Eq. 7 at the owner side)."""
        return self.cop.storage_report().total

    # -- suspend / resume -----------------------------------------------------
    #
    # The encrypted pages already live at the provider, so an owner restart
    # only needs its trusted state: parameters, position map, cached pages,
    # round-robin pointer.  seal_state() packs those into one blob encrypted
    # under the master key — the layout a snapshot's sealed.bin uses —
    # and resume() reconnects to the provider and unpacks.

    def seal_state(self) -> bytes:
        """Export the owner's trusted state as a sealed blob.

        Mid-rotation too: the blob carries the legacy key and the request
        countdown, so the owner resumes under the new key and the rotation
        finishes on schedule.
        """
        manifest = json.dumps(
            encode_manifest(self), sort_keys=True
        ).encode("utf-8")
        sealed = self.cop.suite.encrypt_page(
            self.cop.state.encode(self.cop.cache, self.cop.legacy_master_key)
        )
        return (len(manifest).to_bytes(4, "big") + manifest + sealed)

    @classmethod
    def resume(
        cls,
        sealed_state: bytes,
        channel_factory,
        master_key: bytes = b"owner-master-key",
        clock: Optional[VirtualClock] = None,
        seed: Optional[int] = None,
        owner_spec: Optional[HardwareSpec] = None,
    ) -> "DataOwner":
        """Reconnect to the provider and restore a sealed owner state.

        ``channel_factory`` has the same contract as in :meth:`create`; the
        provider must still hold the frames the sealed state refers to.  A
        wrong master key fails authentication rather than corrupting state;
        a state sealed mid-rotation resumes with the *new* key.
        """
        if len(sealed_state) < 4:
            raise ProtocolError("sealed owner state is truncated")
        manifest_length = int.from_bytes(sealed_state[:4], "big")
        manifest = json.loads(sealed_state[4 : 4 + manifest_length])
        params, backend = decode_manifest(manifest, "sealed owner state")
        cop, remote, engine = _wire(
            params, master_key=master_key, seed=seed, cipher_backend=backend,
            **_owner_wiring(channel_factory, clock, owner_spec),
        )
        cop.state.decode(
            cop.suite.decrypt_page(sealed_state[4 + manifest_length :]),
            cop.cache, cop,
        )
        return cls(params, cop, remote, engine)
