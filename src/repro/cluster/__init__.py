"""Fault-tolerant cluster tier: router, membership, backends.

The serving stack's answer to machine failure (DESIGN.md §13): a
stateless :class:`~repro.cluster.router.ClusterRouter` speaks the
:mod:`repro.net.framing` envelope to clients and pins each session to
one of N backend :class:`~repro.net.server.PirServer` processes.
Health-gated membership (PING/PONG probing with hysteresis) routes
around dead or draining members; failover re-establishes a session on a
replica via RESUME and retransmits the in-flight sealed request, with
shared reply-cache visibility keeping delivery exactly-once.  Sealed
write replication (:mod:`repro.cluster.replication`) streams every
member's mutations to its peers, from tasks on the member's own serving
loop, and the router enforces read-your-writes on failover, so an acknowledged write is visible on whichever replica
adopts the session.  The router never opens sealed bytes — it sits
outside the tamper boundary and learns nothing the host platform does
not already see.
"""

from .backend import BackendHandle, build_cluster, connect_replication
from .membership import BackendSpec, ClusterMembership, MemberState
from .replication import ReplicationApplier, ReplicationLog, ReplicationRecord
from .router import ClusterRouter, RouterThread

__all__ = [
    "BackendHandle",
    "BackendSpec",
    "ClusterMembership",
    "ClusterRouter",
    "MemberState",
    "ReplicationApplier",
    "ReplicationLog",
    "ReplicationRecord",
    "RouterThread",
    "build_cluster",
    "connect_replication",
]
