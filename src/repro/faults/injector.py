"""Deterministic, seed-driven fault injection.

A :class:`FaultInjector` owns a list of composable :class:`FaultPlan`\\ s and
an injected :class:`~repro.crypto.rng.SecureRandom` stream.  Wrappers such as
:class:`repro.faults.wrappers.FaultyDiskStore` consult it before every
operation; the injector decides — purely from the plan list, its per-site
operation counters and the seeded RNG — whether that operation fails, and
how.  The same seed and workload therefore produce the *same* fault
sequence, byte for byte, which is what lets the crash-sweep and retry tests
assert exact traces.

Sites are string labels (``disk.read``, ``disk.write``, ``journal.write``,
``channel``, and the network chaos streams ``net.c2s`` / ``net.s2c`` used
by :class:`repro.faults.netchaos.ChaosProxy`); plans match one site each.
Fault kinds:

``transient``
    Raise :class:`~repro.errors.TransientStorageError` (disk/journal sites)
    or :class:`~repro.errors.TransientChannelError` (channel) *before* the
    operation takes effect — the retryable failure mode.
``corrupt``
    Let the operation proceed but flip one byte of one frame/blob on the
    way through, so MAC verification fails downstream with
    :class:`~repro.errors.AuthenticationError`.
``crash``
    Simulate host power loss: apply a *prefix* of the operation (a torn
    write) and raise :class:`SimulatedCrash`.  ``after`` counts individual
    frames at the site, so a sweep can place the crash at every write step.
``drop`` / ``delay`` / ``duplicate``
    Channel-only: lose the message (timeout), add latency, or deliver the
    request twice.
``reset`` / ``partial``
    Transport-only (``net.*`` sites): abort the TCP connection outright,
    or deliver a *prefix* of the frame and then abort — the two ways a
    real network tears a stream, exercised by the chaos proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.rng import SecureRandom
from ..obs.registry import registry_or_private

__all__ = [
    "SimulatedCrash",
    "FaultPlan",
    "FaultDecision",
    "FaultInjector",
    "SITE_DISK_READ",
    "SITE_DISK_WRITE",
    "SITE_JOURNAL_WRITE",
    "SITE_CHANNEL",
    "SITE_NET_C2S",
    "SITE_NET_S2C",
    "transient_reads",
    "transient_writes",
    "corrupt_reads",
    "crash_after_writes",
    "drop_messages",
    "delay_messages",
    "duplicate_messages",
    "reset_connections",
    "partial_writes",
    "drop_replies",
    "delay_frames",
]

SITE_DISK_READ = "disk.read"
SITE_DISK_WRITE = "disk.write"
SITE_JOURNAL_WRITE = "journal.write"
SITE_CHANNEL = "channel"
#: Chaos-proxy streams: frames travelling client→server and server→client.
SITE_NET_C2S = "net.c2s"
SITE_NET_S2C = "net.s2c"

_SITES = (SITE_DISK_READ, SITE_DISK_WRITE, SITE_JOURNAL_WRITE, SITE_CHANNEL,
          SITE_NET_C2S, SITE_NET_S2C)
_KINDS = ("transient", "corrupt", "crash", "drop", "delay", "duplicate",
          "reset", "partial")


class SimulatedCrash(Exception):
    """The simulated host lost power mid-operation.

    Deliberately *not* a :class:`~repro.errors.ReproError`: no handler in
    the library may catch-and-continue past a crash (the process is gone).
    Tests catch it at top level, then exercise the recovery path.
    """


@dataclass
class FaultPlan:
    """One composable fault rule; see the module docstring for kinds.

    Attributes
    ----------
    site:
        Which operation stream this plan watches.
    kind:
        One of ``transient | corrupt | crash | drop | delay | duplicate``.
    probability:
        Chance of firing per eligible operation (drawn from the injector's
        seeded RNG, so deterministic).  Ignored by ``crash``, which fires
        exactly at its frame threshold.
    times:
        Total number of injections before the plan exhausts itself
        (``None`` = unlimited).
    after:
        For ``crash``: the number of individual frames that *land* at this
        site before the crash (0 = crash before anything is written).  For
        other kinds: eligible operations to skip before arming.
    delay:
        Extra seconds for ``delay`` faults.
    """

    site: str
    kind: str
    probability: float = 1.0
    times: Optional[int] = 1
    after: int = 0
    delay: float = 0.0
    _fired: int = field(default=0, repr=False)
    _skipped: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        from ..errors import ConfigurationError

        if self.site not in _SITES:
            raise ConfigurationError(f"unknown fault site {self.site!r}")
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("fault probability must be in [0, 1]")
        if self.after < 0 or self.delay < 0:
            raise ConfigurationError("after and delay must be non-negative")

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self._fired >= self.times


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one operation."""

    kind: str
    delay: float = 0.0
    # For crashes at multi-frame sites: how many leading frames of the
    # current operation still land before power is lost.
    torn_frames: int = 0
    # For corruption: which frame of the operation to damage.
    corrupt_index: int = 0


# -- plan constructors (the readable way to compose plans) --------------------


def transient_reads(probability: float = 1.0, times: Optional[int] = 1,
                    after: int = 0) -> FaultPlan:
    """Disk reads fail with :class:`TransientStorageError`."""
    return FaultPlan(SITE_DISK_READ, "transient", probability, times, after)


def transient_writes(probability: float = 1.0, times: Optional[int] = 1,
                     after: int = 0) -> FaultPlan:
    """Disk writes fail (before taking effect) with ``TransientStorageError``."""
    return FaultPlan(SITE_DISK_WRITE, "transient", probability, times, after)


def corrupt_reads(probability: float = 1.0, times: Optional[int] = 1,
                  after: int = 0) -> FaultPlan:
    """Disk reads return a frame with one byte flipped (fails its MAC)."""
    return FaultPlan(SITE_DISK_READ, "corrupt", probability, times, after)


def crash_after_writes(num_frames: int) -> FaultPlan:
    """Host crashes once exactly ``num_frames`` frames have been written."""
    return FaultPlan(SITE_DISK_WRITE, "crash", after=num_frames)


def drop_messages(probability: float = 1.0, times: Optional[int] = 1,
                  after: int = 0) -> FaultPlan:
    """Channel loses the request; the caller sees a timeout."""
    return FaultPlan(SITE_CHANNEL, "drop", probability, times, after)


def delay_messages(delay: float, probability: float = 1.0,
                   times: Optional[int] = None, after: int = 0) -> FaultPlan:
    """Channel adds ``delay`` seconds of extra latency."""
    return FaultPlan(SITE_CHANNEL, "delay", probability, times, after,
                     delay=delay)


def duplicate_messages(probability: float = 1.0, times: Optional[int] = 1,
                       after: int = 0) -> FaultPlan:
    """Channel delivers the request twice (at-least-once delivery)."""
    return FaultPlan(SITE_CHANNEL, "duplicate", probability, times, after)


def reset_connections(site: str = SITE_NET_C2S, probability: float = 1.0,
                      times: Optional[int] = 1, after: int = 0) -> FaultPlan:
    """Proxy aborts the TCP connection when the matching frame passes."""
    return FaultPlan(site, "reset", probability, times, after)


def partial_writes(site: str = SITE_NET_S2C, probability: float = 1.0,
                   times: Optional[int] = 1, after: int = 0) -> FaultPlan:
    """Proxy forwards a strict prefix of the frame, then aborts — the
    receiver sees a torn frame, never a clean close."""
    return FaultPlan(site, "partial", probability, times, after)


def drop_replies(probability: float = 1.0, times: Optional[int] = 1,
                 after: int = 0) -> FaultPlan:
    """Proxy swallows a server→client frame; the client must time out
    and retransmit."""
    return FaultPlan(SITE_NET_S2C, "drop", probability, times, after)


def delay_frames(delay: float, site: str = SITE_NET_C2S,
                 probability: float = 1.0, times: Optional[int] = None,
                 after: int = 0) -> FaultPlan:
    """Proxy holds the frame for ``delay`` real seconds before forwarding."""
    return FaultPlan(site, "delay", probability, times, after, delay=delay)


class FaultInjector:
    """Seed-driven oracle deciding which operations fail and how.

    >>> injector = FaultInjector(seed=7, plans=[transient_reads(times=2)])
    >>> injector.check(SITE_DISK_READ).kind
    'transient'

    The decision stream is a pure function of (seed, plans, operation
    sequence); two injectors built the same way agree on every call.
    """

    def __init__(
        self,
        seed: int = 0,
        plans: Sequence[FaultPlan] = (),
        registry=None,
    ):
        self.rng = SecureRandom(seed)
        self.plans: List[FaultPlan] = list(plans)
        self.counters = registry_or_private(registry).counter_view("faults.")
        # Cumulative frames seen per site (drives crash thresholds).
        self._frames_seen: Dict[str, int] = {site: 0 for site in _SITES}

    def add(self, plan: FaultPlan) -> None:
        self.plans.append(plan)

    def frames_seen(self, site: str) -> int:
        return self._frames_seen[site]

    def check(self, site: str, frames: int = 1) -> Optional[FaultDecision]:
        """Decide the fate of one operation touching ``frames`` frames.

        Crash plans take precedence (power loss preempts everything), then
        the first non-exhausted matching plan that passes its probability
        draw.  Returns ``None`` for a healthy operation.
        """
        before = self._frames_seen[site]
        self._frames_seen[site] = before + frames

        for plan in self.plans:
            if plan.site != site or plan.kind != "crash" or plan.exhausted:
                continue
            # Fires on the operation during which the frame counter crosses
            # the threshold: `after` frames land, then the lights go out.
            if before <= plan.after < before + frames:
                plan._fired += 1
                self.counters.increment("fault.crash")
                return FaultDecision("crash", torn_frames=plan.after - before)

        for plan in self.plans:
            if plan.site != site or plan.kind == "crash" or plan.exhausted:
                continue
            if plan._skipped < plan.after:
                plan._skipped += 1
                continue
            if plan.probability < 1.0 and self.rng.random() >= plan.probability:
                continue
            plan._fired += 1
            self.counters.increment(f"fault.{plan.kind}")
            decision_delay = plan.delay
            corrupt_index = 0
            if plan.kind == "corrupt" and frames > 1:
                corrupt_index = self.rng.randrange(frames)
            return FaultDecision(plan.kind, delay=decision_delay,
                                 corrupt_index=corrupt_index)
        return None

    def corruption(self, length: int) -> Tuple[int, int]:
        """Which byte of a ``length``-byte blob to damage, and the non-zero
        mask to XOR into it — drawn without the blob, so a wrapper can
        decide a read's damage before the frames arrive."""
        return self.rng.randrange(length), 1 + self.rng.randrange(255)

    def corrupt_blob(self, blob: bytes) -> bytes:
        """Flip one pseudorandom byte of ``blob`` (never a no-op)."""
        if not blob:
            return blob
        position, mask = self.corruption(len(blob))
        return (blob[:position] + bytes([blob[position] ^ mask])
                + blob[position + 1:])
