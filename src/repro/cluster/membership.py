"""Health-gated cluster membership (DESIGN.md §13).

The router holds one :class:`MemberState` per configured backend and
feeds it two signals: the outcome of periodic PING/PONG probes, and hard
transport failures observed while relaying live traffic.  Membership
policy is deliberately simple and hysteretic:

* a member is **ejected** (``up=False``) after ``eject_after``
  consecutive probe failures — one dropped packet must not evict a
  healthy backend;
* an ejected member is **readmitted** after ``readmit_after``
  consecutive probe successes — a backend that flaps mid-restart must
  not receive sessions until it stays up;
* a hard failure during serving (connection refused, reset mid-relay)
  marks the member down *immediately*: the router just lost a request on
  it, which is stronger evidence than any probe.

``draining`` (reported by the backend in its PONG) is a separate axis
from ``up``: a draining member is healthy but being rolled, so it keeps
its in-flight work yet receives no new or failed-over sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import ConfigurationError
from ..obs.registry import registry_or_private

__all__ = ["BackendSpec", "MemberState", "ClusterMembership"]


@dataclass(frozen=True)
class BackendSpec:
    """Address of one backend server."""

    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "BackendSpec":
        """``host:port`` → spec (the CLI's ``--backend`` format)."""
        host, sep, port = text.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"backend spec {text!r} is not host:port"
            )
        try:
            return cls(host, int(port))
        except ValueError as exc:
            raise ConfigurationError(
                f"backend spec {text!r} has a non-numeric port"
            ) from exc


class MemberState:
    """Mutable health + load record for one backend."""

    def __init__(self, spec: BackendSpec):
        self.spec = spec
        self.up = True
        self.draining = False
        #: Open-session count from the member's last PONG.
        self.reported_sessions = 0
        #: Sessions the router currently pins to this member.
        self.pinned = 0
        self.consecutive_failures = 0
        self.consecutive_successes = 0

    @property
    def address(self) -> str:
        return self.spec.address

    @property
    def routable(self) -> bool:
        return self.up and not self.draining

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "up" if self.up else "down"
        if self.draining:
            flags += ",draining"
        return f"MemberState({self.address}, {flags}, pinned={self.pinned})"


class ClusterMembership:
    """The router's view of which backends may receive traffic.

    Single-threaded by design: every mutation happens on the router's
    event loop.  Tests may *read* states from other threads (plain
    attribute loads).
    """

    def __init__(
        self,
        specs: Sequence[BackendSpec],
        eject_after: int = 3,
        readmit_after: int = 2,
        metrics=None,
    ):
        if not specs:
            raise ConfigurationError("a cluster needs at least one backend")
        if len({spec.address for spec in specs}) != len(specs):
            raise ConfigurationError("duplicate backend address in cluster")
        if eject_after < 1 or readmit_after < 1:
            raise ConfigurationError(
                "eject_after and readmit_after must be positive"
            )
        self.eject_after = eject_after
        self.readmit_after = readmit_after
        self._members: Dict[str, MemberState] = {
            spec.address: MemberState(spec) for spec in specs
        }
        metrics = registry_or_private(metrics)
        self.counters = metrics.counter_view("cluster.")
        self._up_gauge = metrics.gauge("cluster.members.up")
        metrics.gauge("cluster.members.total").set(len(self._members))
        self._publish()

    # -- views -----------------------------------------------------------------

    @property
    def members(self) -> List[MemberState]:
        return list(self._members.values())

    def member(self, address: str) -> MemberState:
        return self._members[address]

    @property
    def up_count(self) -> int:
        return sum(1 for state in self._members.values() if state.up)

    @property
    def at_full_strength(self) -> bool:
        return all(state.up and not state.draining
                   for state in self._members.values())

    def pick(self, exclude: Iterable[str] = ()) -> Optional[MemberState]:
        """Least-loaded routable member, or None when the cluster is bare.

        Load is the router's own pinned-session count (authoritative for
        traffic *this* router sends) with the member's last self-reported
        count as a tiebreaker (covers sessions pinned by other routers).
        """
        excluded = set(exclude)
        candidates = [
            state for state in self._members.values()
            if state.routable and state.address not in excluded
        ]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda s: (s.pinned, s.reported_sessions))

    # -- probe + traffic signals -----------------------------------------------

    def record_probe_ok(self, address: str, draining: bool,
                        sessions: int) -> None:
        state = self._members[address]
        state.draining = draining
        state.reported_sessions = sessions
        state.consecutive_failures = 0
        state.consecutive_successes += 1
        self.counters.increment("probe.ok")
        if not state.up and state.consecutive_successes >= self.readmit_after:
            state.up = True
            self.counters.increment("readmit")
            self._publish()

    def record_probe_failure(self, address: str) -> None:
        state = self._members[address]
        state.consecutive_successes = 0
        state.consecutive_failures += 1
        self.counters.increment("probe.fail")
        if state.up and state.consecutive_failures >= self.eject_after:
            self._eject(state)

    def mark_down(self, address: str) -> None:
        """Immediate ejection on a hard serving failure (no hysteresis)."""
        state = self._members[address]
        state.consecutive_successes = 0
        state.consecutive_failures = max(state.consecutive_failures,
                                         self.eject_after)
        if state.up:
            self._eject(state)

    def _eject(self, state: MemberState) -> None:
        state.up = False
        self.counters.increment("eject")
        self._publish()

    # -- pinning ---------------------------------------------------------------

    def pin(self, address: str) -> None:
        self._members[address].pinned += 1

    def unpin(self, address: str) -> None:
        state = self._members[address]
        if state.pinned > 0:
            state.pinned -= 1

    def _publish(self) -> None:
        self._up_gauge.set(self.up_count)
