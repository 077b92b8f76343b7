"""Pinned configuration, workload table and op generators for bench_e2e.

Everything a workload's *inputs* depend on lives here and is shared by the
parent (``run.py`` / ``loadgen.py``) and the deployment child
(``deploy.py``), so the same ``--seed`` gives the same ops on both sides.

Parameters are pinned, not taken from ``repro.plan``: for this privacy
target the planner returns k = 2 with a cache holding 72 % of the database,
and a benchmark's workload must not move when the planner does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.crypto.rng import SecureRandom
from repro.workload.generators import Operation, ZipfSampler, uniform_stream

TARGET_C = 2.0
CIPHER_BACKEND = "blake2"  # the aes backend needs ~35 s of setup at full scale
ZIPF_THETA = 0.99
MIX = (0.5, 0.3, 0.1, 0.1)  # query / update / insert / delete
RESERVE_FRACTION = 0.1
BATCH = 8
#: Length of one burst of calls between two calibration kernels (see
#: calibration.py): short enough to follow the host's speed.
SLICE_S = 0.05
SERVED_SLICE_S = 0.1  # >= 4 query_many calls per caller and burst


@dataclass(frozen=True)
class Scale:
    """Database size and warm-up length; ``comparable`` marks the real one."""

    name: str
    num_pages: int
    page_size: int
    cache: int
    hot_tier_frames: int  # 1/8 of the frames: the database outgrows the tier
    warmup_calls: int
    comparable: bool


FULL = Scale("full", 65536, 1024, 1024, 8192, 200, True)
SMOKE = Scale("smoke", 1024, 256, 64, 128, 10, False)
SCALES = {scale.name: scale for scale in (FULL, SMOKE)}


@dataclass(frozen=True)
class Workload:
    """One deployment + load shape.  ``clients == 0`` means the deployment
    child runs the op loop itself (no serving stack in the path)."""

    name: str
    deployment: str  # inproc | durable | server | cluster
    clients: int
    load: str  # uniform | mixed | batch | rw
    replicated: bool = False

    @property
    def ops_per_call(self) -> int:
        return BATCH if self.load == "batch" else 1

    @property
    def members(self) -> int:
        return 2 if self.deployment == "cluster" else 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("inproc_read", "inproc", 0, "uniform"),
        Workload("inproc_durable_mixed", "durable", 0, "mixed"),
        Workload("tcp_single", "server", 2, "uniform"),
        Workload("tcp_batch8", "server", 2, "batch"),
        Workload("routed_read", "cluster", 2, "uniform"),
        Workload("replicated_rw", "cluster", 2, "rw", replicated=True),
    )
}


def page_payload(scale: Scale, tag: int) -> bytes:
    """A full-page payload distinguishable by ``tag`` (the make_records shape)."""
    return tag.to_bytes(8, "big") * (scale.page_size // 8)


def uniform_ids(num_pages: int, seed: int, label: str) -> Iterator[int]:
    """Endless uniform page ids from ``repro.workload.generators``."""
    rng = SecureRandom(seed).spawn(f"bench-e2e-{label}")
    while True:
        yield from uniform_stream(num_pages, 1024, rng)


class MixedOps:
    """Zipf-skewed query/update/insert/delete stream with its shadow model.

    ``operation_stream`` cannot be used as is: it draws ids uniformly and
    re-sorts its live set for every op (65 536 ids here).  This keeps its
    :class:`Operation` shape and mix semantics but samples ids from
    :class:`ZipfSampler` and learns inserted ids from the replies, so no
    generated op can fail: reads, updates and deletes only target live
    pages.  ``shadow`` holds every acknowledged write (``None`` = deleted)
    and is the oracle for replies and for the restart read-back.
    """

    def __init__(self, scale: Scale, seed: int, records: List[bytes]):
        self.scale = scale
        self.records = records
        self.rng = SecureRandom(seed).spawn("bench-e2e-mixed")
        self.zipf = ZipfSampler(scale.num_pages, ZIPF_THETA)
        self.shadow: Dict[int, Optional[bytes]] = {}
        self.serial = 0

    def expected(self, page_id: int) -> Optional[bytes]:
        if page_id in self.shadow:
            return self.shadow[page_id]
        return self.records[page_id]

    def _live_id(self) -> int:
        while True:
            page_id = self.zipf.sample(self.rng)
            if self.expected(page_id) is not None:
                return page_id

    def next_op(self) -> Operation:
        roll = self.rng.random()
        self.serial += 1
        if roll < MIX[0]:
            return Operation("query", self._live_id())
        payload = page_payload(self.scale, (1 << 62) | self.serial)
        if roll < MIX[0] + MIX[1]:
            return Operation("update", self._live_id(), payload)
        if roll < MIX[0] + MIX[1] + MIX[2]:
            return Operation("insert", None, payload)
        return Operation("delete", self._live_id())

    def observe(self, op: Operation, result) -> bool:
        """Record an acknowledged op; False when a query's bytes are wrong."""
        if op.kind == "query":
            return result == self.expected(op.page_id)
        if op.kind == "update":
            self.shadow[op.page_id] = op.payload
        elif op.kind == "insert":
            self.shadow[result] = op.payload
        else:
            self.shadow[op.page_id] = None
        return True
