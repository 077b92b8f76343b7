"""The tamper-resistant secure coprocessor (trusted computing base).

Bundles everything that lives inside the tamper boundary:

* the cipher suite and its keys (never leave the boundary),
* the randomness source,
* the page cache (``pageCache``) and the trusted state — position map
  (``pageMap``), free pool and request counters (:class:`TrustedState`),
* secure-memory accounting against the platform spec (Eq. 7).

The coprocessor does not know the retrieval algorithm — that is
:class:`repro.core.engine.RetrievalEngine` — it only provides the trusted
primitives (seal/unseal pages, timing charges for its link and crypto
engine) plus the cache and the trusted state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cache import PageCache, RANDOM_POLICY
from .trusted import TrustedState
from .specs import HardwareSpec
from ..crypto.rng import SecureRandom
from ..crypto.suite import CipherSuite
from ..errors import AuthenticationError, CapacityError, ConfigurationError
from ..obs.tracer import NULL_TRACER, Tracer
from ..sim.clock import VirtualClock
from ..storage.frames import frame_matrix
from ..storage.page import Page, PageWindow, encode_pages

__all__ = ["SecureCoprocessor", "SecureStorageReport"]


@dataclass(frozen=True)
class SecureStorageReport:
    """Breakdown of secure-memory consumption in bytes (Eq. 7)."""

    page_map: int
    page_cache: int
    server_block: int

    @property
    def total(self) -> int:
        return self.page_map + self.page_cache + self.server_block


class SecureCoprocessor:
    """Trusted hardware state and primitives.

    Parameters
    ----------
    num_pages:
        Total logical pages (disk locations + cached pages).
    cache_capacity:
        ``m``, the number of pages held in the internal cache.
    block_size:
        ``k``; only used for the server-block term of storage accounting.
    page_capacity:
        Payload capacity of each page in bytes.
    spec:
        Platform performance envelope; storage is checked against
        ``spec.total_secure_memory`` and timing charged via ``clock``.
    """

    def __init__(
        self,
        num_pages: int,
        cache_capacity: int,
        block_size: int,
        page_capacity: int,
        master_key: bytes = b"repro-master-key",
        spec: Optional[HardwareSpec] = None,
        clock: Optional[VirtualClock] = None,
        rng: Optional[SecureRandom] = None,
        cipher_backend: str = "shake",
        cache_policy: str = RANDOM_POLICY,
        enforce_memory_limit: bool = False,
        tracer: Optional[Tracer] = None,
    ):
        self.spec = spec if spec is not None else HardwareSpec.instantaneous()
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = rng if rng is not None else SecureRandom()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.suite = CipherSuite(master_key, backend=cipher_backend, rng=self.rng,
                                 tracer=self.tracer)
        # The master keys stay inside the tamper boundary with the suite;
        # they are retained (the suite only keeps derived keys) so sibling
        # suites for the online reshuffler and warm-replica snapshots can be
        # derived without a round-trip to the operator.
        self._master_key = bytes(master_key)
        self._legacy_master_key: Optional[bytes] = None
        self._legacy_suite: Optional[CipherSuite] = None
        self.page_capacity = page_capacity
        self.block_size = block_size
        self.state = TrustedState(num_pages - cache_capacity, cache_capacity, block_size)
        self.cache = PageCache(cache_capacity, self.rng.spawn("cache"), cache_policy)
        if enforce_memory_limit:
            report = self.storage_report()
            if report.total > self.spec.total_secure_memory:
                raise CapacityError(
                    f"configuration needs {report.total} bytes of secure memory "
                    f"but the platform provides {self.spec.total_secure_memory} "
                    f"({self.spec.units} unit(s))"
                )

    # -- page sealing ---------------------------------------------------------
    #
    # Key rotation rides on the continuous reshuffle for free: every request
    # rewrites its whole block plus one extra page with fresh encryptions, and
    # the round-robin schedule touches every location exactly once per scan
    # period.  So switching the *sealing* key while keeping the old key for
    # unsealing makes the entire database migrate to the new key within one
    # scan — no extra I/O, no downtime, and the server cannot even tell a
    # rotation happened (write-backs always look fresh).  The trusted state
    # counts the scan down; the engine calls finish_key_rotation() when it
    # reaches zero.

    @property
    def rotation_in_progress(self) -> bool:
        """True from :meth:`begin_key_rotation` until the countdown ends
        (exactly when ``state.rotation_left`` is not None)."""
        return self._legacy_suite is not None

    def begin_key_rotation(self, new_master_key: bytes) -> None:
        """Start sealing under a new master key; old frames remain readable.

        Starts the trusted state's countdown: one scan period of further
        requests re-encrypts every location, and the legacy key is dropped.
        Refused while a reshuffle epoch is active — the epoch's driver
        seals under a sibling of the suite it began with, so it would keep
        writing frames under a key the countdown then drops.  Rotating
        before an epoch begins is fine: its sibling derives from the new key.
        """
        if self.rotation_in_progress:
            raise CapacityError("a key rotation is already in progress")
        if self.state.epoch_active:
            raise ConfigurationError(
                f"reshuffle epoch {self.state.epoch_base} is in progress; "
                "finish the epoch before rotating the master key"
            )
        self._legacy_suite = self.suite
        self._legacy_master_key = self._master_key
        self._master_key = bytes(new_master_key)
        self.suite = CipherSuite(
            new_master_key, backend=self.suite.backend, rng=self.rng,
            tracer=self.tracer,
        )
        if self.suite.frame_size(self.plaintext_page_size) != self.frame_size:
            raise CapacityError("rotation must preserve the frame size")
        self.state.start_rotation_countdown()

    def finish_key_rotation(self) -> None:
        """Drop the legacy key once a full scan has re-encrypted everything."""
        self._legacy_suite = None
        self._legacy_master_key = None

    @property
    def legacy_master_key(self) -> Optional[bytes]:
        """The pre-rotation master key, or None outside a rotation.

        Only read when sealing trusted state mid-rotation
        (:meth:`TrustedState.encode <repro.hardware.trusted.TrustedState.encode>`)
        — the key travels inside the sealed blob, never in a public
        manifest.
        """
        return self._legacy_master_key

    def adopt_legacy_key(self, legacy_master_key: bytes) -> None:
        """Re-enter an in-progress rotation restored from a snapshot.

        The current suite already seals under the new key; this re-creates
        the legacy suite so pre-rotation frames keep authenticating until
        the restored countdown ends.
        """
        if self.rotation_in_progress:
            raise CapacityError("a key rotation is already in progress")
        self._legacy_master_key = bytes(legacy_master_key)
        self._legacy_suite = CipherSuite(
            legacy_master_key, backend=self.suite.backend, rng=self.rng,
            tracer=self.tracer,
        )

    def sibling_suite(self, label: str) -> CipherSuite:
        """A suite with the *same* derived keys but an independent nonce RNG.

        The online reshuffler must reseal frames without consuming the
        request path's deterministic nonce stream — otherwise running a
        re-permutation epoch would change the bytes the engine produces.
        ``SecureRandom.spawn`` derives the child
        stream without advancing the parent, so a sibling suite's frames
        decrypt under :attr:`suite` (identical enc/MAC keys) while its
        nonces never collide with, or perturb, the engine's.
        """
        return CipherSuite(
            self._master_key, backend=self.suite.backend,
            rng=self.rng.spawn(label), tracer=self.tracer,
        )

    @property
    def plaintext_page_size(self) -> int:
        return Page.plaintext_size(self.page_capacity)

    @property
    def frame_size(self) -> int:
        """Bytes of one encrypted page frame as stored on the untrusted disk."""
        return self.suite.frame_size(self.plaintext_page_size)

    def _with_legacy_key(self, open_with):
        """``open_with(suite)`` under the current key — and, during a key
        rotation, under the legacy key if the current one refuses it."""
        try:
            return open_with(self.suite)
        except AuthenticationError:
            if self._legacy_suite is None:
                raise
            return open_with(self._legacy_suite)

    def seal(self, page: Page) -> bytes:
        """Encode + encrypt a page with a fresh nonce (Figure 3, line 21):
        :meth:`seal_pages` with a batch of one."""
        return self.seal_pages([page])[0].tobytes()

    def unseal(self, frame: bytes) -> Page:
        """Decrypt + authenticate + decode a page frame: :meth:`unseal_frames`
        with a batch of one (so a legacy-key frame is accepted during a
        rotation).  The payload is a view, as a window slot's is.  Bytes of
        any other size than a frame are not a page frame of this database:
        they fail authentication."""
        if len(frame) != self.frame_size:
            raise AuthenticationError(
                f"{len(frame)}-byte frame is not a {self.frame_size}-byte "
                "page frame"
            )
        return self.unseal_frames([frame])[0]

    def seal_pages(self, pages: Sequence[Page]) -> np.ndarray:
        """Encode + encrypt pages: one cipher-suite call, one matrix of frames.

        Handed the :class:`PageWindow` that :meth:`unseal_frames` returned,
        only the slots replaced since are re-encoded (into the window's own
        plaintext matrix, which goes straight back to the kernel); any
        other sequence of pages is encoded in one pass.  Nonces are drawn
        in page order, so row i is byte-identical to sealing page i
        individually — see DESIGN.md §10.
        """
        if isinstance(pages, PageWindow):
            plain = pages.plaintext(self.page_capacity)
        else:
            plain = encode_pages(pages, self.page_capacity)
        return self.suite.encrypt_pages(plain)

    def unseal_frames(self, frames) -> PageWindow:
        """Decrypt + authenticate + decode frames, MACs verified as a batch.

        ``frames`` is a frame matrix (what a range read returns) or any
        sequence of frames.  The whole batch is verified and decrypted in
        one suite call and comes back as a :class:`PageWindow` over the
        plaintext matrix — pages are only decoded as they are asked for.

        During a key rotation the store holds a mix of old- and new-key
        frames: exactly the rows that fail the current key are retried
        under the legacy key.
        """
        frames = frame_matrix(frames, self.frame_size)
        try:
            plain = self.suite.decrypt_pages(frames)
        except AuthenticationError as exc:
            if self._legacy_suite is None:
                raise
            legacy = list(exc.failed)
            current = sorted(set(range(len(frames))).difference(legacy))
            plain = np.empty((len(frames), self.plaintext_page_size), np.uint8)
            try:
                plain[legacy] = self._legacy_suite.decrypt_pages(frames[legacy])
            except AuthenticationError as inner:
                failed = [legacy[row] for row in inner.failed]
                raise AuthenticationError(
                    f"frame(s) {failed} of batch of {len(frames)} failed MAC "
                    "verification under both the current and the legacy key",
                    failed=failed,
                ) from None
            if current:
                plain[current] = self.suite.decrypt_pages(frames[current])
        return PageWindow(plain)

    def seal_intent(self, magic: bytes, header: bytes, frames) -> bytearray:
        """Seal one write-ahead intent record (:mod:`repro.core.journal`).

        Only ``header`` — the trusted-state delta — is encrypted; ``frames``
        are the window's sealed frames exactly as they go to disk, carried
        as they are, and the record's tag covers each frame's own tag
        (:meth:`CipherSuite.seal_intent <repro.crypto.suite.CipherSuite.seal_intent>`).
        """
        return self.suite.seal_intent(
            magic, header, frame_matrix(frames, self.frame_size)
        )

    def unseal_intent(self, magic: bytes, record, header_size: int):
        """Authenticate a record sealed by :meth:`seal_intent`.

        Returns ``(header, frames)``: the decrypted header and the frame
        section as a read-only matrix view of ``record``, whose frames the
        caller opens (:meth:`unseal_frames`) before it acts on the record.
        Accepts the legacy key during a rotation.
        """
        return self._with_legacy_key(
            lambda suite: suite.open_intent(
                magic, record, header_size, self.frame_size
            )
        )

    def seal_record(self, plaintext: bytes) -> bytes:
        """Seal one fixed-size control record (the §13 replication stream).

        The caller pads the record to its deployment-fixed size *before*
        sealing, so every sealed record is the same length regardless of
        the operation it carries — the host sees a uniform stream of
        ciphertexts, one per request, and learns nothing about the
        read/write mix.  Sealing uses the replica-shared master-key suite,
        which is what makes the record readable by every peer coprocessor
        and by nothing outside one.
        """
        return self.suite.encrypt_page(plaintext)

    def unseal_record(self, sealed: bytes) -> bytes:
        """Authenticate + decrypt a record sealed by a peer coprocessor.

        Accepts the legacy key during a rotation.
        """
        return self._with_legacy_key(lambda suite: suite.decrypt_page(sealed))

    # -- timing charges (link + crypto engine) -----------------------------------

    def charge_ingest(self, num_frames: int) -> None:
        """Clock cost of pulling ``num_frames`` frames in and decrypting them."""
        nbytes = num_frames * self.frame_size
        with self.tracer.span("link.ingest", nbytes=nbytes):
            self.clock.advance(self.spec.ingest_time(nbytes))

    def charge_egress(self, num_frames: int) -> None:
        """Clock cost of re-encrypting ``num_frames`` frames and pushing them out."""
        nbytes = num_frames * self.frame_size
        with self.tracer.span("link.egress", nbytes=nbytes):
            self.clock.advance(self.spec.egress_time(nbytes))

    # -- storage accounting --------------------------------------------------------

    def storage_report(self) -> SecureStorageReport:
        """Actual secure-memory footprint, mirroring Eq. 7's three terms."""
        page_bytes = self.plaintext_page_size
        return SecureStorageReport(
            page_map=self.state.storage_bytes(),
            page_cache=self.cache.capacity * page_bytes,
            server_block=(self.block_size + 1) * page_bytes,
        )
