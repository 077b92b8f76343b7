"""Per-layer metrics and the cost ledger, derived from one traced phase.

Inputs are differences of the deployment child's cumulative observations
(``deploy.Deployment._cmd_obs``) over the traced phase, plus the client-side
latencies of the callers served by the traced member.  Every value is a
mean per logical op unless its name says otherwise; a layer the workload
bypasses reads 0.
"""

from __future__ import annotations

from typing import Dict, List

from calibration import to_reference

APPLY_THREAD = "pir-repl-worker"

# Ledger leaf rows: which spans' self time each per-layer metric claims.
# Span time no row claims (link.*, write_back, net.request self) lands in
# the residue, as does everything outside the program's spans on inproc_*.
LEAF_SPANS = {
    "frontend.serve_self_ms": ("frontend.serve", "frontend.batch"),
    "engine.self_ms": ("request", "engine.batch"),
    "engine.pagemap_cache_ms": ("pagemap.lookup", "cache.op", "evict"),
    "crypto.decrypt_ms": ("decrypt",),
    "crypto.reencrypt_ms": ("reencrypt",),
    "store.read_ms": ("disk.read", "tier.hot_read"),
    "store.write_ms": ("disk.write",),
    "store.fsync_ms": ("disk.fsync",),
    "journal.ms": ("journal.seal", "journal.write", "journal.clear"),
    "repl.emit_ms": ("repl.emit",),
    "repl.barrier_ms": ("repl.barrier",),
}
LEAF_ROWS = ("wire.overhead_ms", "router.hop_ms") + tuple(LEAF_SPANS)


def diff(after, before):
    """``after - before`` over nested dicts of numbers (missing = 0)."""
    if isinstance(after, dict):
        before = before if isinstance(before, dict) else {}
        return {key: diff(value, before.get(key, 0))
                for key, value in after.items()
                if isinstance(value, (dict, int, float))}
    return after - before


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SpanTable:
    """Span sums of the serving path (every thread but the apply worker)."""

    def __init__(self, spans_by_thread: Dict[str, Dict[str, Dict[str, float]]]):
        self.rows: Dict[str, Dict[str, float]] = {}
        for thread, rows in spans_by_thread.items():
            if thread == APPLY_THREAD:
                continue
            for name, row in rows.items():
                into = self.rows.setdefault(name, dict.fromkeys(row, 0))
                for key, value in row.items():
                    into[key] += value

    def get(self, names, field: str) -> float:
        return sum(self.rows.get(name, {}).get(field, 0) for name in names)


def per_layer(workload, info, main, direct, untraced_ops_per_s: float,
              predicted_virtual_s: float) -> Dict[str, float]:
    """All per-layer metrics of one workload.

    ``main`` is the traced phase through the workload's own front door;
    ``direct`` (multi-member workloads only) the traced phase with callers
    connected straight to the backends, which gives the wire overhead to
    subtract from the routed one.  Both are ``run.Traced``.
    """
    phase, obs = main.phase, main.obs
    ops = max(phase.ops, 1)
    spans = SpanTable(obs["spans"])
    counters = obs["registry"].get("counters", {})
    ms = 1000.0 * main.to_reference / ops  # mean per op, at reference speed

    out = {name: spans.get(names, "self_s") * ms
           for name, names in LEAF_SPANS.items()}
    client_op_ms = sum(phase.lat) * ms
    net_request_ms = spans.get(("net.request",), "total_s") * ms
    served = workload.clients > 0
    overhead_ms = client_op_ms - net_request_ms if served else 0.0
    if direct is not None:
        wire_ms = (sum(direct.phase.lat)
                   - SpanTable(direct.obs["spans"]).get(("net.request",), "total_s")
                   ) * 1000.0 * direct.to_reference / max(direct.phase.ops, 1)
        out["wire.overhead_ms"] = wire_ms
        out["router.hop_ms"] = overhead_ms - wire_ms
    else:
        out["wire.overhead_ms"] = overhead_ms
        out["router.hop_ms"] = 0.0

    out["client.op_ms"] = client_op_ms
    out["client.lat_p99_ms"] = (percentile(phase.lat, 99) * 1000.0
                                * main.to_reference)
    out["wire.bytes_per_op"] = (counters.get("net.bytes.in", 0)
                                + counters.get("net.bytes.out", 0)) / ops
    out["router.failovers"] = counters.get("cluster.failovers", 0)
    out["router.retransmits"] = counters.get("cluster.retransmits", 0)
    frontend_requests = counters.get("frontend.requests", 0)
    out["frontend.batch_size_mean"] = (phase.ops / frontend_requests
                                       if frontend_requests else 0.0)
    out["frontend.duplicates"] = counters.get("frontend.requests.duplicate", 0)
    out["engine.request_ms"] = spans.get(("request", "engine.batch"), "total_s") * ms

    # Frame and byte counts are per engine request on the traced member: a
    # replicated member also executes its peer's records.
    engine_ops = max(counters.get("engine.requests", 0), 1)
    out["engine.reads_per_op"] = obs["read_frames"] / engine_ops
    out["store.bytes_per_op"] = obs["store_bytes"] / engine_ops
    out["crypto.bytes_per_op"] = spans.get(("decrypt", "reencrypt"), "bytes") / ops
    out["store.fsyncs_per_op"] = spans.get(("disk.fsync",), "count") / ops
    tier_reads = counters.get("tier.hit", 0) + counters.get("tier.miss", 0)
    out["tier.hot_hit_ratio"] = (counters.get("tier.hit", 0) / tier_reads
                                 if tier_reads else 0.0)
    out["store.space_amp"] = info["stored_bytes"] / info["user_bytes"]
    out["journal.bytes_per_op"] = obs["journal_bytes"] / ops

    repl = obs["repl"]
    applied = repl.get("applied", 0)
    apply_rows = obs["spans"].get(APPLY_THREAD, {})
    out["repl.apply_ms"] = (apply_rows.get("repl.apply", {}).get("total_s", 0.0)
                            * 1000.0 * main.to_reference / applied
                            if applied else 0.0)
    out["repl.records_per_op"] = repl.get("emitted", 0) / ops
    out["repl.ryw_refusals"] = counters.get("cluster.ryw.rejected", 0)

    for step, seconds in info["setup"].items():
        out[f"setup.{step}_s"] = seconds * to_reference(info["setup_cal"])

    if workload.name == "inproc_read":
        measured = main.stats["virtual_s"] / ops
        out["plan.virtual_pred_err"] = abs(predicted_virtual_s - measured) / measured
    else:
        out["plan.virtual_pred_err"] = 0.0
    leaves = sum(out[name] for name in LEAF_ROWS)
    out["ledger.residue_ratio"] = (client_op_ms - leaves) / client_op_ms
    out["trace.overhead_ratio"] = 1.0 - main.ops_per_s / untraced_ops_per_s
    return out


def ledger_rows(workload, layer: Dict[str, float], served_ops: int):
    """The query-cost ledger: what one logical op touched, then where its
    time went (each leaf row's ms and share of ``client.op_ms``, residue
    as its own row).  JSONL-ready: ``kind`` is ``ledger``."""
    total = layer["client.op_ms"]
    rows = [{
        "kind": "ledger", "workload": workload.name, "row": "totals",
        "members_touched": workload.members if workload.replicated else 1,
        "wire_bytes": layer["wire.bytes_per_op"],
        "crypto_bytes": layer["crypto.bytes_per_op"],
        "store_bytes": layer["store.bytes_per_op"],
        "time_ms": total, "ops": served_ops,
    }]
    for name in LEAF_ROWS:
        rows.append({"kind": "ledger", "workload": workload.name, "row": name,
                     "time_ms": layer[name],
                     "share": layer[name] / total if total else 0.0})
    residue = layer["ledger.residue_ratio"]
    rows.append({"kind": "ledger", "workload": workload.name, "row": "residue",
                 "time_ms": residue * total, "share": residue})
    return rows


def format_ledger(rows) -> List[str]:
    head = rows[0]
    lines = [
        f"ledger {head['workload']}: one logical op "
        f"(mean of {head['ops']} traced ops)",
        f"  members touched {head['members_touched']}   "
        f"wire {head['wire_bytes']:.0f} B   "
        f"through crypto {head['crypto_bytes']:.0f} B   "
        f"store {head['store_bytes']:.0f} B   time {head['time_ms']:.4f} ms",
    ]
    for row in rows[1:]:
        lines.append(f"  {row['row']:<26} {row['time_ms']:>10.4f} ms "
                     f"{100 * row['share']:>7.2f} %")
    return lines
