"""The data owner of the two-party model: the "secure hardware" is a server.

In the outsourcing setting (§3.1) the owner is the only client, so the
tamper-resistant coprocessor is unnecessary: the owner's own machine —
physically isolated from the provider — runs the cache, page map, keys and
the Figure-3 algorithm, while the encrypted pages live at the provider.

:class:`RemoteDisk` adapts the wire protocol to the engine's storage
interface, batching each request's accesses into exactly one READ and one
WRITE round trip (as the paper's prototype did), which is what makes the
network — not the RTT count — the bottleneck of Figure 7.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import messages
from .channel import SimulatedChannel
from ..core.engine import RetrievalEngine
from ..core.params import SystemParameters
from ..crypto.rng import SecureRandom
from ..errors import ConfigurationError, PageDeletedError, ProtocolError
from ..hardware.coprocessor import SecureCoprocessor
from ..hardware.specs import HardwareSpec
from ..shuffle.permutation import Permutation
from ..sim.clock import VirtualClock
from ..storage.merkle import AuthenticatedDisk
from ..storage.page import Page

__all__ = ["RemoteDisk", "DataOwner"]

_UPLOAD_BATCH = 512


class RemoteDisk:
    """Engine-facing storage adapter that speaks the wire protocol."""

    def __init__(self, channel: SimulatedChannel, num_locations: int, frame_size: int):
        self.channel = channel
        self.num_locations = num_locations
        self.frame_size = frame_size
        self.current_request = -1  # engine attribution hook; unused remotely

    def _call(self, message: messages.Message) -> messages.Message:
        response = self.channel.call(messages.encode(message, self.frame_size))
        reply = messages.decode(response, self.frame_size)
        if isinstance(reply, messages.ErrorReply):
            raise ProtocolError(f"provider error: {reply.message}")
        return reply

    def upload(self, start: int, frames: Sequence[bytes]) -> None:
        reply = self._call(messages.Upload(start, tuple(frames)))
        if not isinstance(reply, messages.UploadAck):
            raise ProtocolError(f"expected UploadAck, got {type(reply).__name__}")

    def read_request(
        self, block_start: int, count: int, extra_location: int
    ) -> np.ndarray:
        reply = self._call(messages.ReadRequest(block_start, count, extra_location))
        if not isinstance(reply, messages.ReadResponse):
            raise ProtocolError(f"expected ReadResponse, got {type(reply).__name__}")
        if len(reply.frames) != count:
            raise ProtocolError(
                f"provider returned {len(reply.frames)} frames, expected {count}"
            )
        # The store contract's matrix (block rows, then the extra), in a
        # buffer the caller owns.
        return np.frombuffer(
            bytearray().join(reply.frames + (reply.extra_frame,)), np.uint8
        ).reshape(count + 1, self.frame_size)

    def write_request(
        self, block_start: int, frames, extra_location: int, extra_frame
    ) -> None:
        reply = self._call(
            messages.WriteRequest(
                block_start, tuple(frames), extra_location, extra_frame
            )
        )
        if not isinstance(reply, messages.WriteAck):
            raise ProtocolError(f"expected WriteAck, got {type(reply).__name__}")


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
        standard wiring against a fresh :class:`ServiceProvider`.
        """
        if not records:
            raise ConfigurationError("records must be non-empty")
        if block_size is not None:
            params = SystemParameters.from_block_size(
                len(records), cache_capacity, block_size,
                page_capacity=page_capacity, reserve_fraction=reserve_fraction,
            )
        else:
            params = SystemParameters.solve(
                len(records), cache_capacity, target_c,
                page_capacity=page_capacity, reserve_fraction=reserve_fraction,
            )
        clock = clock if clock is not None else VirtualClock()
        rng = SecureRandom(seed)
        # The owner's machine replaces the coprocessor: no PCI link or slow
        # crypto ASIC in the loop (the network dominates instead), so the
        # owner spec defaults to a fast commodity server.
        spec = owner_spec if owner_spec is not None else HardwareSpec(
            secure_memory=2**62,
            link_bandwidth=float("inf"),
            crypto_throughput=100e6,
        )
        cop = SecureCoprocessor(
            num_pages=params.total_pages,
            cache_capacity=params.cache_capacity,
            block_size=params.block_size,
            page_capacity=params.page_capacity,
            master_key=master_key,
            spec=spec,
            clock=clock,
            rng=rng,
            cipher_backend=cipher_backend,
        )
        channel = channel_factory(clock, cop.frame_size, params.num_locations)
        remote = RemoteDisk(channel, params.num_locations, cop.frame_size)
        if rollback_protection:
            # The owner keeps a Merkle root over the provider's frames, so a
            # *malicious* provider replaying stale data is caught on read —
            # the natural hardening for the outsourcing model, where the
            # paper's honest-but-curious assumption is least comfortable.
            remote = AuthenticatedDisk(remote)

        # Setup: permute in trusted owner memory, encrypt, upload in batches.
        permutation = Permutation.random(params.num_locations, rng.spawn("setup"))
        layout = [0] * params.num_locations
        for page_id in range(params.num_locations):
            layout[permutation.apply(page_id)] = page_id

        def page_for(page_id: int) -> Page:
            if page_id < len(records):
                return Page(page_id, bytes(records[page_id]))
            return Page(page_id, b"", deleted=True)

        for start in range(0, params.num_locations, _UPLOAD_BATCH):
            stop = min(start + _UPLOAD_BATCH, params.num_locations)
            batch = [page_for(layout[pos]) for pos in range(start, stop)]
            remote.upload(start, cop.seal_pages(batch))

        cache_pages = [
            Page(params.num_locations + slot, b"", deleted=True)
            for slot in range(params.cache_capacity)
        ]
        cop.cache.fill(cache_pages)
        for position, page_id in enumerate(layout):
            cop.page_map.set_disk(page_id, position)
            if page_id >= len(records):
                cop.page_map.mark_deleted(page_id)
        for slot, page in enumerate(cache_pages):
            cop.page_map.set_cached(page.page_id, slot)
            cop.page_map.mark_deleted(page.page_id)

        engine = RetrievalEngine(params, cop, remote)
        return cls(params, cop, remote, engine)

    # -- operations (same surface as PirDatabase) ---------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self.cop.clock

    def query(self, page_id: int) -> bytes:
        page = self.engine.retrieve(page_id)
        if self.cop.page_map.is_deleted(page_id):
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
    # under the master key; resume() reconnects to the provider and unpacks.

    def seal_state(self) -> bytes:
        """Export the owner's trusted state as a sealed blob."""
        import json as _json

        from ..core.snapshot import _encode_trusted_state

        if self.cop.rotation_in_progress:
            raise ConfigurationError(
                "cannot seal owner state during a key rotation; finish it "
                "first (one scan period of requests)"
            )
        manifest = _json.dumps({
            "num_user_pages": self.params.num_user_pages,
            "reserve_pages": self.params.reserve_pages,
            "cache_capacity": self.params.cache_capacity,
            "block_size": self.params.block_size,
            "num_locations": self.params.num_locations,
            "page_capacity": self.params.page_capacity,
            "target_c": self.params.target_c,
            "cipher_backend": self.cop.suite.backend,
        }, sort_keys=True).encode("utf-8")
        sealed = self.cop.suite.encrypt_page(_encode_trusted_state(self))
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
        wrong master key fails authentication rather than corrupting state.
        """
        import json as _json

        from ..core.snapshot import (
            _decode_trusted_state,
            _require_provided_backend,
        )

        if len(sealed_state) < 4:
            raise ProtocolError("sealed owner state is truncated")
        manifest_length = int.from_bytes(sealed_state[:4], "big")
        manifest = _json.loads(sealed_state[4 : 4 + manifest_length])
        sealed = sealed_state[4 + manifest_length :]
        _require_provided_backend(
            manifest["cipher_backend"], "sealed owner state"
        )
        params = SystemParameters(
            num_user_pages=manifest["num_user_pages"],
            reserve_pages=manifest["reserve_pages"],
            cache_capacity=manifest["cache_capacity"],
            block_size=manifest["block_size"],
            num_locations=manifest["num_locations"],
            page_capacity=manifest["page_capacity"],
            target_c=manifest["target_c"],
        )
        clock = clock if clock is not None else VirtualClock()
        spec = owner_spec if owner_spec is not None else HardwareSpec(
            secure_memory=2**62,
            link_bandwidth=float("inf"),
            crypto_throughput=100e6,
        )
        cop = SecureCoprocessor(
            num_pages=params.total_pages,
            cache_capacity=params.cache_capacity,
            block_size=params.block_size,
            page_capacity=params.page_capacity,
            master_key=master_key,
            spec=spec,
            clock=clock,
            rng=SecureRandom(seed),
            cipher_backend=manifest["cipher_backend"],
        )
        trusted = cop.suite.decrypt_page(sealed)
        channel = channel_factory(clock, cop.frame_size, params.num_locations)
        remote = RemoteDisk(channel, params.num_locations, cop.frame_size)
        cop.cache.fill([Page.dummy() for _ in range(params.cache_capacity)])
        engine = RetrievalEngine(params, cop, remote)
        owner = cls(params, cop, remote, engine)
        _decode_trusted_state(trusted, owner)
        return owner
