"""Deployment child of bench_e2e: builds one workload's deployment and hosts it.

Started fresh per deployment by ``run.py`` so ``setup_s`` and ``peak_rss_mb``
are per workload and the load generator does not share a GIL with the
servers.  Speaks JSON lines: one ``ready`` event on stdout once the
deployment serves, then one reply per command read from stdin (``run``,
``stats``, ``trace``, ``obs``, ``finish``).  Exits when told to finish or
when the parent closes stdin.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

# Measure this checkout's program, whatever else is installed.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "src"))

from repro.baselines import make_records
from repro.cluster import (
    BackendHandle,
    ClusterRouter,
    RouterThread,
    connect_replication,
)
from repro.core.database import PirDatabase
from repro.core.engine import BatchOp
from repro.core.journal import FileJournal
from repro.core.snapshot import bootstrap_replica, load_snapshot, save_snapshot
from repro.errors import PageDeletedError, ReproError
from repro.hardware.specs import IBM_4764
from repro.net import PirServer, ServerThread
from repro.obs import MetricsRegistry, write_jsonl
from repro.service.frontend import SESSION_RANDOM, QueryFrontend, SealedReplyCache
from repro.storage.filedisk import SYNC_ON_FLUSH, FileDiskStore
from repro.storage.trace import READ
from repro.workload.generators import Operation

from calibration import SpeedSampler, kernel_seconds, stolen_seconds
from obs import ThreadTracer, TimedJournal, span_around
from workloads import (
    CIPHER_BACKEND,
    RESERVE_FRACTION,
    SCALES,
    SLICE_S,
    TARGET_C,
    WORKLOADS,
    MixedOps,
    uniform_ids,
)

SETTLE_S = 10.0  # for replication to catch up / BYEs to reach the backends


class UniformQueries:
    """Uniform ``query`` ops checked against ``make_records``."""

    def __init__(self, records, ids):
        self.records = records
        self.ids = ids

    def next_op(self) -> Operation:
        return Operation("query", next(self.ids))

    def observe(self, op: Operation, result) -> bool:
        return result == self.records[op.page_id]


def apply_op(db: PirDatabase, op: Operation):
    if op.kind == "query":
        return db.query(op.page_id)
    if op.kind == "update":
        return db.update(op.page_id, op.payload)
    if op.kind == "insert":
        return db.insert(op.payload)
    return db.delete(op.page_id)


class Deployment:
    """One workload's deployment, its op source (in-process workloads) and
    the commands the parent drives it with."""

    def __init__(self, spec):
        self.workload = WORKLOADS[spec["workload"]]
        self.scale = SCALES[spec["scale"]]
        self.seed = spec["seed"]
        self.traced = spec["traced"]
        self.workdir = spec["workdir"]
        self.tracer = ThreadTracer() if self.traced else None
        self.registry = MetricsRegistry() if self.traced else None
        self.setup_s = {"create": 0.0, "snapshot": 0.0, "listen": 0.0}
        self.members = []
        self.frontends = []
        self.handles = []
        self.server_thread = None
        self.router_thread = None
        self.journal = None
        self.source = None
        self.frames_path = None
        os.makedirs(self.workdir, exist_ok=True)
        self.records = make_records(self.scale.num_pages, self.scale.page_size)
        getattr(self, "_build_" + self.workload.deployment)()

    # -- construction ----------------------------------------------------------

    def _timed(self, phase, call, *args, **kwargs):
        started = time.perf_counter()
        result = call(*args, **kwargs)
        self.setup_s[phase] += time.perf_counter() - started
        return result

    def _create(self, **extra) -> PirDatabase:
        return self._timed(
            "create", PirDatabase.create, self.records,
            cache_capacity=self.scale.cache, target_c=TARGET_C,
            page_capacity=self.scale.page_size, spec=IBM_4764,
            cipher_backend=CIPHER_BACKEND, seed=self.seed,
            trace_enabled=self.traced, tracer=self.tracer,
            metrics=self.registry, **extra,
        )

    def _build_inproc(self):
        self.members = [self._create()]
        self.source = UniformQueries(
            self.records,
            uniform_ids(self.scale.num_pages, self.seed, "inproc"),
        )

    def _build_durable(self):
        self.frames_path = os.path.join(self.workdir, "frames.bin")

        def disk_factory(num_locations, frame_size, timing, clock, trace):
            return FileDiskStore(self.frames_path, num_locations, frame_size,
                                 timing, clock, trace,
                                 sync_policy=SYNC_ON_FLUSH)

        self.journal = self._new_journal()
        self.members = [self._create(
            reserve_fraction=RESERVE_FRACTION, disk_factory=disk_factory,
            journal=self.journal, hot_tier_frames=self.scale.hot_tier_frames,
        )]
        self.source = MixedOps(self.scale, self.seed, self.records)

    def _new_journal(self):
        # fsync=False: this sandbox's fsync wait is the host disk's, not the
        # program's (1.6-7 ms mean per 5 s run on identical work; it made
        # lat_p95_ms swing by 0.34-0.47).  The journal's write, rename and
        # unlink still run; they are CPU and syscall cost.
        journal = FileJournal(os.path.join(self.workdir, "intent.journal"),
                              fsync=False)
        if self.traced:
            journal = TimedJournal(journal, self.tracer)
        return journal

    def _build_server(self):
        db = self._create()
        frontend = QueryFrontend(db, metrics=self.registry,
                                 session_id_mode=SESSION_RANDOM)
        server = PirServer(frontend, workers=1, metrics=self.registry)
        self.server_thread = self._timed("listen", ServerThread(server).start)
        self.members = [db]
        self.frontends = [frontend]

    def _build_cluster(self):
        # build_cluster() restores replicas with load_snapshot's defaults —
        # no HardwareSpec (their virtual clock never moves) and the access
        # trace always on — so virtual_ms_per_op would depend on which
        # member a client lands on.  Assemble the same members from the
        # same public parts, with the spec passed through.
        primary = self._create()
        replica = self._timed(
            "snapshot", bootstrap_replica, primary,
            os.path.join(self.workdir, "bootstrap"), seed=self.seed + 1,
            spec=IBM_4764, trace_enabled=self.traced,
        )
        self.members = [primary, replica]
        reply_cache = SealedReplyCache()
        for index, db in enumerate(self.members):
            # Only the primary is observed: load_snapshot takes no tracer,
            # and per-op means over one member are what the ledger needs.
            metrics = self.registry if index == 0 else None
            frontend = QueryFrontend(
                db, metrics=metrics, session_id_mode=SESSION_RANDOM,
                reply_cache=reply_cache, session_salt=f"member-{index}",
            )
            self.frontends.append(frontend)
            self.handles.append(BackendHandle(db, frontend, metrics=metrics))
        started = time.perf_counter()
        for handle in self.handles:
            handle.start()
        if self.workload.replicated:
            durable = os.path.join(self.workdir, "repl")
            os.makedirs(durable, exist_ok=True)
            connect_replication(self.handles, cover_traffic=True,
                                durable_dir=durable)
            if self.traced:
                first = self.handles[0]
                span_around(first.repl_log, "emit", self.tracer, "repl.emit")
                span_around(first.repl_log, "wait_replicated", self.tracer,
                            "repl.barrier")
                span_around(first.repl_applier, "apply", self.tracer,
                            "repl.apply")
        self.router_thread = RouterThread(ClusterRouter(
            [h.spec for h in self.handles], metrics=self.registry)).start()
        self.setup_s["listen"] += time.perf_counter() - started

    def describe(self):
        db = self.members[0]
        info = {
            "achieved_c": db.achieved_c,
            "block_size": db.params.block_size,
            "num_blocks": db.params.num_blocks,
            "stored_bytes": (os.path.getsize(self.frames_path)
                             if self.frames_path is not None
                             else db.params.num_locations * db.cop.frame_size),
            "setup": self.setup_s,
        }
        if self.server_thread is not None:
            info["address"] = [self.server_thread.host, self.server_thread.port]
        if self.router_thread is not None:
            info["address"] = [self.router_thread.host, self.router_thread.port]
            info["direct"] = [[h.host, h.port] for h in self.handles]
        return info

    # -- commands --------------------------------------------------------------

    def handle(self, command):
        return getattr(self, "_cmd_" + command["cmd"])(command)

    def _cmd_stats(self, _command):
        return {
            "virtual_s": sum(db.clock.now for db in self.members),
            "requests": [db.engine.request_count for db in self.members],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "traced_sessions": (self.frontends[0].session_ids
                                if self.frontends else []),
        }

    def _cmd_calibrate(self, _command):
        return {"kernel_s": kernel_seconds()}

    def _cmd_run(self, command):
        """The in-process op loop: closed, one caller, in bursts of SLICE_S
        bracketed by calibration kernels; replies are checked outside the
        timed interval."""
        calls, seconds = command.get("calls"), command.get("seconds")
        bursts = []
        made = 0
        started = time.perf_counter()
        kernel = kernel_seconds()
        while ((calls is None or made < calls)
               and (seconds is None
                    or time.perf_counter() - started < seconds)):
            burst = self._burst(None if calls is None else calls - made)
            made += burst["attempted"]
            kernel_after = kernel_seconds()
            burst["cal"] = [kernel, kernel_after]
            kernel = kernel_after
            bursts.append(burst)
        return {"bursts": bursts}

    def _burst(self, calls):
        db = self.members[0]
        lat, errors = [], []
        attempted = failed = 0
        stolen = stolen_seconds()
        started = time.perf_counter()
        while ((calls is None or attempted < calls)
               and time.perf_counter() - started < SLICE_S):
            op = self.source.next_op()
            attempted += 1
            begin = time.perf_counter()
            try:
                result = apply_op(db, op)
            except ReproError as exc:
                failed += 1
                errors.append(f"{op.kind} {op.page_id}: {exc!r}")
                continue
            lat.append(time.perf_counter() - begin)
            if not self.source.observe(op, result):
                failed += 1
                errors.append(f"wrong bytes for {op.kind} {op.page_id}")
        return {"lat": lat, "attempted": attempted, "failed": failed,
                "errors": errors[:5],
                "elapsed": time.perf_counter() - started,
                "steal": stolen_seconds() - stolen}

    def _cmd_trace(self, command):
        self.tracer.enabled = command["on"]
        for db in self.members:
            db.trace.enabled = command["on"]
        return {}

    def _cmd_obs(self, _command):
        """Cumulative layer observations of the traced member."""
        db = self.members[0]
        frame = db.cop.frame_size
        read_frames = moved_frames = 0
        for event in db.trace:
            if event.request_index >= 0:
                moved_frames += event.count
                if event.op == READ:
                    read_frames += event.count
        out = {
            "spans": self.tracer.summary(),
            "dropped_spans": self.tracer.dropped(),
            "registry": self.registry.snapshot(),
            "read_frames": read_frames,
            "store_bytes": moved_frames * frame,
            "journal_bytes": getattr(self.journal, "bytes_written", 0),
            "repl": {},
        }
        if self.handles and self.handles[0].repl_log is not None:
            first = self.handles[0]
            out["repl"] = {
                "emitted": first.repl_log.counters.get("emitted"),
                "applied": first.repl_applier.counters.get("applied"),
            }
        return out

    def _cmd_finish(self, command):
        """Drain, run the end-of-run oracle, dump spans."""
        checks = {}
        if self.workload.replicated:
            checks["replication_settled"] = self._settle(lambda: all(
                peer.repl_applier.applied_for(origin.repl_log.origin)
                >= origin.repl_log.last_seq
                for origin in self.handles for peer in self.handles
                if peer is not origin
            ))
        # Cluster backends keep sessions across a drain (they fail over),
        # so a session only closes once the caller's BYE has arrived —
        # through the router, if there is one.  Wait for that first.
        self._settle(lambda: not any(
            frontend.session_count for frontend in self.frontends))
        if self.router_thread is not None:
            self.router_thread.stop()
        for handle in self.handles:
            handle.drain()
        if self.server_thread is not None:
            self.server_thread.drain()
        if self.frontends:
            checks["sessions_closed"] = all(
                frontend.session_count == 0 for frontend in self.frontends
            )
        requests = [db.engine.request_count for db in self.members]
        if self.traced:
            checks["trace_shape_fixed"] = all(
                self._shape_fixed(db) for db in self.members
            )
            checks["no_dropped_spans"] = self.tracer.dropped() == 0
            write_jsonl(command["spans_path"], self.tracer.span_dicts())
        if self.workload.replicated:
            digests = {db.content_digest() for db in self.members}
            checks["digests_converged"] = len(digests) == 1
        if self.workload.deployment == "durable":
            checks["restart_readback"] = self._restart_readback()
        for db in self.members:
            db.close()
        return {"checks": checks, "requests": requests}

    @staticmethod
    def _settle(condition) -> bool:
        deadline = time.monotonic() + SETTLE_S
        while not condition():
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    @staticmethod
    def _shape_fixed(db: PirDatabase) -> bool:
        """Every traced request (or fused window) moved the same (op, count)
        sequence — the predicate of ``storage.trace.shapes_identical``,
        grouped in one pass because a fused window leaves index gaps."""
        shapes = {}
        for event in db.trace:
            if event.request_index >= 0:
                shapes.setdefault(event.request_index, []).append(
                    (event.op, event.count))
        return len({tuple(shape) for shape in shapes.values()}) <= 1

    def _restart_readback(self) -> bool:
        """Snapshot, drop the instance without close(), restore, recover,
        and read every acknowledged write back against the shadow dict."""
        snapshot = os.path.join(self.workdir, "snapshot")
        save_snapshot(self.members[0], snapshot)
        self.members = []
        db = load_snapshot(
            snapshot, spec=IBM_4764, seed=self.seed + 2, trace_enabled=False,
            journal=self._new_journal(),
            hot_tier_frames=self.scale.hot_tier_frames,
        )
        db.recover()
        shadow = self.source.shadow
        replies = db.run_batch([BatchOp("query", page_id=page_id)
                                for page_id in shadow])
        db.close()
        return all(
            isinstance(reply, PageDeletedError) if expected is None
            else reply == expected
            for reply, expected in zip(replies, shadow.values())
        )


def main() -> int:
    spec = json.loads(sys.argv[1])
    protocol_out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # stray prints must not corrupt the protocol

    def send(message) -> None:
        protocol_out.write(json.dumps(message) + "\n")
        protocol_out.flush()

    try:
        sampler = SpeedSampler()
        sampler.start()
        deployment = Deployment(spec)
        send(dict(deployment.describe(), event="ready",
                  setup_cal=sampler.finish()))
        for line in sys.stdin:
            command = json.loads(line)
            send(deployment.handle(command))
            if command["cmd"] == "finish":
                break
    finally:
        shutil.rmtree(spec["workdir"], ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
