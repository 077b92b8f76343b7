"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subsystems raise the most specific subclass available;
nothing in the library raises bare ``Exception`` or ``ValueError`` for
conditions a caller is expected to handle.

Hierarchy::

    ReproError
    ├── ConfigurationError        invalid parameter combination
    ├── CryptoError               cryptographic operation failed
    │   └── AuthenticationError   MAC / freshness verification failed
    ├── StorageError              untrusted page store rejected an operation
    │   ├── PageNotFoundError     logical page id does not exist
    │   │   └── PageDeletedError  page exists but is marked deleted
    │   ├── TransientStorageError I/O fault expected to succeed on retry
    │   └── RollbackError         host storage is older than sealed state
    ├── CapacityError             fixed-capacity structure is full
    ├── ProtocolError             two-party / client protocol violation
    │   └── TransientChannelError message lost or timed out; retryable
    │       └── NetTimeoutError   socket deadline expired (connect or read)
    ├── RecoveryError             crash recovery cannot restore consistency
    ├── DegradedServiceError      service refusing work in a degraded state
    └── IndexError_               paged index structure inconsistency

Transient errors (``TransientStorageError``, ``TransientChannelError``) are
the retry layer's contract: anything else raised by storage or the channel
is treated as permanent and propagates immediately.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A parameter combination is invalid or violates a model constraint.

    Examples: ``c <= 1``, cache larger than the database, or a database too
    small for the rejection-sampling loop of the retrieval algorithm to
    terminate (requires ``n > m + k + 1``).
    """


class PlanInfeasibleError(ConfigurationError):
    """No parameter assignment satisfies a capacity-planning target.

    ``constraint`` names the binding constraint so callers (and the CLI)
    can report *which* target to relax: ``"latency"`` (the p99 bound is
    below what any block size can deliver), ``"privacy"`` (the privacy
    target is outside the scheme's tunable range), ``"secure_memory"``
    (the cache required by the privacy/latency pair exceeds the secure
    hardware's memory), or ``"throughput"`` (the QPS target exceeds the
    maximum shard fan-out's capacity).
    """

    def __init__(self, message: str, constraint: str = "unspecified"):
        super().__init__(message)
        self.constraint = constraint


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key size, nonce misuse, ...)."""


class AuthenticationError(CryptoError):
    """A ciphertext failed MAC verification.

    Raised when a page read back from the untrusted server does not
    authenticate under the coprocessor's key — per the threat model the
    server is honest-but-curious, so in a healthy deployment this indicates
    corruption rather than attack, but we surface it either way.

    ``failed`` holds the batch indices of every frame that failed (empty
    when the failure is not about a batch of frames).
    """

    def __init__(self, message: str = "", failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class StorageError(ReproError):
    """The untrusted page store rejected an operation (bad location, size)."""


class PageNotFoundError(StorageError):
    """A logical page id does not exist in the database."""


class PageDeletedError(PageNotFoundError):
    """The requested logical page exists in the map but is marked deleted."""


class TransientStorageError(StorageError):
    """A disk operation failed in a way that is expected to clear on retry.

    Models the recoverable half of real storage failure modes — a timed-out
    SCSI command, a dropped DMA transfer, an EINTR'd ``pread`` — as opposed
    to the hard rejections :class:`StorageError` covers (bad location,
    wrong frame size).  The engine's and client's retry layers only ever
    retry on this class (plus :class:`AuthenticationError` for bounded
    re-reads); everything else is permanent.
    """


class RollbackError(StorageError):
    """Host storage holds less than the trusted state says was written.

    Raised when a file the host keeps is older than a mark sealed inside
    the tamper boundary — e.g. a replication backlog that ends below the
    origin's sealed stream mark.  Carrying on would reissue what the
    sealed state already counts as written, so the component refuses to
    start instead.
    """


class CapacityError(ReproError):
    """A fixed-capacity structure (cache, secure memory, block) is full."""


class ProtocolError(ReproError):
    """Two-party protocol violation: unexpected message type or framing."""


class TransientChannelError(ProtocolError):
    """A network message was lost, duplicated away, or timed out.

    The channel-level analogue of :class:`TransientStorageError`: the
    request may be retried safely because every retrieval request is
    self-contained (the engine's round-robin pointer only advances once
    the request commits).
    """


class NetTimeoutError(TransientChannelError):
    """A network socket deadline expired (connect or read).

    Distinguishes "the peer is slow or gone" from the other transient
    channel failures (reset, closed mid-frame), so callers can configure
    connect and read deadlines separately and react differently — a
    connect timeout usually means the host is down (try another member),
    a read timeout usually means the request is lost in flight (reconnect
    and retransmit the identical sealed bytes so the reply cache dedupes).
    """


class RecoveryError(ReproError):
    """Crash recovery could not restore a consistent state.

    Raised by :meth:`repro.core.engine.RetrievalEngine.recover` when the
    intent journal and the trusted state disagree in a way roll-forward
    cannot fix — e.g. the journal describes a request *later* than the one
    the restored trusted state is expecting, meaning the snapshot predates
    the journal and the write-back cannot be replayed safely.
    """


class DegradedServiceError(ReproError):
    """The service is refusing work because it is in a degraded/failed state.

    Carried to clients as a :class:`repro.service.protocol.Refused` reply
    whose ``retry_after`` hint tells them when to try again; raised locally
    by :class:`repro.service.frontend.ServiceClient` once its retry budget
    is exhausted.  ``retry_after`` is the suggested wait in (virtual)
    seconds; ``0.0`` means "immediately retryable".
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class IndexError_(ReproError):
    """A paged index structure (B+-tree, grid) detected an inconsistency."""
