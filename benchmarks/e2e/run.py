"""bench_e2e: one harness for the end-to-end and per-layer benchmark.

    python3 benchmarks/e2e/run.py --seed 7                  # the full set
    python3 benchmarks/e2e/run.py --smoke                   # bit-rot guard
    python3 benchmarks/e2e/run.py --repeat-check            # two sets, compared
    python3 benchmarks/e2e/run.py --workload tcp_single --seed 7 \\
        --seconds 5 --trace 0                               # one driver run

Each workload's deployment runs in a fresh child process (``deploy.py``);
this process generates the load, checks every reply and derives the
metrics named in ``BENCHMARK.json``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))

# Measure this checkout's program, whatever else is installed.
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.baselines import make_records
from repro.hardware.specs import IBM_4764
from repro.obs import write_jsonl
from repro.plan.model import CalibratedCostModel

import ledger
from calibration import stolen_seconds, to_reference
from loadgen import Burst, Caller, Phase, drive
from workloads import (
    FULL,
    SERVED_SLICE_S,
    SMOKE,
    WORKLOADS,
    Scale,
    Workload,
)

SETUPS = 3
SMOKE_SECONDS = 0.6
RESIDUE_WARNING = 0.15
#: One clock tick (10 ms) in a 100 ms burst on two CPUs.
QUIET_STEAL_SHARE = 0.05
CHILD_EXIT_TIMEOUT_S = 60.0

NOTES = """\
notes on reading these numbers
- The engine is single-threaded by contract.  On 2-client workloads
  lat_p50_ms ~ 2 x service time while ops_per_s ~ 1 / service time: a layer
  saving d ms moves p50 by ~2d there and by d on 1-caller workloads.
- With no contention a faster layer saves at most its ledger share (crypto
  is ~95 % of inproc_read and ~63 % of inproc_durable_mixed).
- virtual_ms_per_op, achieved_c, engine.reads_per_op, store.bytes_per_op and
  wire.bytes_per_op are counts that repeat exactly on 1-caller workloads;
  cite them as counts, never as speed-ups.
- Times are at reference host speed (see calibration.py), reads come from
  the OS page cache and the journal is not fsync'd: latencies are this
  sandbox's, not a device's."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Child:
    """One deployment child; ``setup_s`` runs from spawn to its ready event
    (at reference speed, from the kernels run around its set-up phases)."""

    def __init__(self, workload: Workload, scale: Scale, seed: int,
                 traced: bool, out_dir: str):
        spec = {
            "workload": workload.name, "scale": scale.name, "seed": seed,
            "traced": traced,
            "workdir": os.path.join(out_dir, f"tmp-{os.getpid()}-{workload.name}"),
        }
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "deploy.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.info = self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = ((time.perf_counter() - started)
                        * to_reference(self.info["setup_cal"]))
        self.info["user_bytes"] = scale.num_pages * scale.page_size

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("deployment child exited without answering")
        return json.loads(line)

    def request(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps(dict(fields, cmd=cmd)) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """End the child (closing stdin ends its command loop) and reap it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Load:
    """Drives one deployment: in the child for ``inproc_*``, from here over
    TCP otherwise.  Counts acknowledged ops for the exactly-once check."""

    def __init__(self, child: Child, workload: Workload, scale: Scale,
                 seed: int, records: Optional[List[bytes]]):
        self.child = child
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.records = records
        self.acked = 0
        self.direct: List[Caller] = []
        # Connected one after another so the router pins one session to
        # each backend (least-loaded pick).
        self.callers = [self._caller(index, child.info["address"], seed)
                        for index in range(workload.clients)]

    def _caller(self, index: int, address, seed: int) -> Caller:
        return Caller(index, address, self.workload, self.scale, seed,
                      self.records)

    def connect_direct(self) -> None:
        """Extra callers straight to the backends, bypassing the router."""
        self.direct = [
            self._caller(index, address, self.seed + 1)
            for index, address in enumerate(self.child.info["direct"])
        ]

    def run(self, calls: Optional[int] = None, seconds: Optional[float] = None,
            direct: bool = False) -> List[Burst]:
        """Closed-loop calls for ``calls`` per caller or ``seconds``, as a
        list of bursts, each taken between two calibration kernels run in
        the deployment child."""
        if not self.workload.clients:
            reply = self.child.request("run", calls=calls, seconds=seconds)
            bursts = [Burst.from_child(burst) for burst in reply["bursts"]]
        else:
            callers = self.direct if direct else self.callers
            bursts = []
            started = time.perf_counter()
            kernel = self.child.request("calibrate")["kernel_s"]
            while not bursts or (seconds is not None and
                                 time.perf_counter() - started < seconds):
                stolen = stolen_seconds()
                burst = drive(callers, calls=calls, seconds=(
                    None if seconds is None else SERVED_SLICE_S))
                burst.steal = stolen_seconds() - stolen
                kernel_after = self.child.request("calibrate")["kernel_s"]
                burst.cal = (kernel, kernel_after)
                kernel = kernel_after
                bursts.append(burst)
        self.acked += sum(burst.ops for burst in bursts)
        return bursts

    def warm_up(self) -> None:
        """Untimed calls before any measurement.

        In-process: ``scale.warmup_calls`` ops.  Served: until every
        member's engine has run one scan period.  A server rewrites frames
        on its worker thread, whose malloc arena cannot reuse the frames
        set-up allocated on the main thread, so RSS grows by one database
        copy (and pages fault in) until each location was rewritten once.
        """
        workload = self.workload
        if not workload.clients:
            self.run(calls=self.scale.warmup_calls)
            return
        # One call is one engine request (a fused window for a batch) on
        # one member — on every member when replicated.
        requests = self.child.info["num_blocks"] * (
            1 if workload.replicated else workload.members)
        self.run(calls=-(-requests // workload.clients))

    def close(self) -> None:
        for caller in self.callers + self.direct:
            caller.close()


def merged(phases) -> Phase:
    total = Phase()
    for phase in phases:
        total.merge(phase)
    return total


def flat(bursts: List[Burst]) -> Phase:
    return merged(phase for burst in bursts for phase in burst.phases)


def quiet(bursts: List[Burst]) -> List[Burst]:
    """The bursts timing statistics are taken from: those during which the
    hypervisor stole at most QUIET_STEAL_SHARE of the machine's CPU time
    (or no more than during the quietest quarter of the bursts, on a host
    that disturbs more than that).  Stolen time is the host's, not the
    program's; every burst still counts for correctness."""
    def stolen_share(burst: Burst) -> float:
        return burst.steal / (burst.elapsed * (os.cpu_count() or 1))

    shares = sorted(stolen_share(burst) for burst in bursts)
    limit = max(QUIET_STEAL_SHARE, shares[len(shares) // 4])
    return [burst for burst in bursts if stolen_share(burst) <= limit]


def reference_ops_per_s(bursts: List[Burst]) -> float:
    """Median over bursts of logical ops per second at reference speed."""
    return statistics.median(
        burst.ops / burst.elapsed / to_reference(burst.cal)
        for burst in bursts
    )


def reference_latencies(bursts: List[Burst]) -> List[float]:
    """Every call's latency at reference speed, in seconds."""
    return [lat * to_reference(burst.cal)
            for burst in bursts for phase in burst.phases
            for lat in phase.lat]


def finish(child: Child, load: Load, workload: Workload, out_dir: str,
           tag: str) -> Dict[str, bool]:
    """Close the callers, drain the deployment, run the end-of-run oracle."""
    load.close()
    done = child.request("finish", spans_path=os.path.join(
        out_dir, f"{workload.name}-{tag}-spans.jsonl"))
    child.close()
    checks = done["checks"]
    expected = load.acked * (workload.members if workload.replicated else 1)
    checks["exactly_once"] = sum(done["requests"]) == expected
    return checks


def run_untraced(workload: Workload, scale: Scale, seed: int, seconds: float,
                 setups: int, out_dir: str, records) -> dict:
    """Set up ``setups`` times (median -> setup_s), then warm up and measure
    the last deployment with tracing off."""
    setup_samples = []
    for _ in range(setups - 1):
        spare = Child(workload, scale, seed, False, out_dir)
        setup_samples.append(spare.setup_s)
        spare.close()
    child = Child(workload, scale, seed, False, out_dir)
    setup_samples.append(child.setup_s)
    try:
        load = Load(child, workload, scale, seed, records)
        load.warm_up()
        before = child.request("stats")
        bursts = load.run(seconds=seconds)
        after = child.request("stats")
        checks = finish(child, load, workload, out_dir, "untraced")
    finally:
        child.close()
    phase = flat(bursts)
    timed = quiet(bursts)
    latencies = reference_latencies(timed)
    metrics = {
        "ops_per_s": reference_ops_per_s(timed),
        "lat_p50_ms": 1000 * ledger.percentile(latencies, 50),
        "lat_p95_ms": 1000 * ledger.percentile(latencies, 95),
        "virtual_ms_per_op": 1000 * (after["virtual_s"] - before["virtual_s"])
        / max(phase.ops, 1),
        "achieved_c": child.info["achieved_c"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": after["rss_mb"],
    }
    return {
        "metrics": metrics, "attempted": phase.attempted,
        "failed": phase.failed, "checks": checks, "errors": phase.errors[:5],
        "samples": {"bursts": len(bursts), "quiet_bursts": len(timed),
                    "calls": len(latencies), "ops": phase.ops,
                    "setup_s": setup_samples},
    }


class Traced:
    """One traced phase: the callers the traced member served, and the
    differences of its observations over the phase."""

    def __init__(self, child: Child, load: Load, seconds: float, direct: bool):
        obs = child.request("obs")
        stats = child.request("stats")
        bursts = load.run(seconds=seconds, direct=direct)
        self.all = flat(bursts)
        self.ops_per_s = reference_ops_per_s(quiet(bursts))
        self.obs = ledger.diff(child.request("obs"), obs)
        after = child.request("stats")
        self.stats = ledger.diff(after, stats)
        if direct:
            mine = [0]  # caller 0 dialled member 0, the traced one
        elif load.workload.members > 1:
            mine = [index for index, caller in enumerate(load.callers)
                    if caller.session_id in after["traced_sessions"]]
        else:
            mine = range(len(bursts[0].phases))
        self.phase = merged(burst.phases[index] for burst in bursts
                            for index in mine)
        # Spans are summed in the child over the whole phase, so per-layer
        # times take the phase's mean host speed, not a per-burst one.
        self.to_reference = to_reference(
            [kernel for burst in bursts for kernel in burst.cal])


def run_traced(workload: Workload, scale: Scale, seed: int, seconds: float,
               out_dir: str, records) -> dict:
    """A second deployment built with tracer, registry and access trace:
    a quarter of the time with spans off (the tracing-overhead base), the
    rest with spans on — on multi-member workloads a quarter of it with
    the callers dialled straight to the backends."""
    child = Child(workload, scale, seed, True, out_dir)
    try:
        load = Load(child, workload, scale, seed, records)
        load.warm_up()
        untraced = reference_ops_per_s(quiet(load.run(seconds=seconds / 4)))
        child.request("trace", on=True)
        direct = None
        if workload.members > 1:
            load.connect_direct()
            direct = Traced(child, load, seconds / 4, direct=True)
            main = Traced(child, load, seconds / 2, direct=False)
        else:
            main = Traced(child, load, 3 * seconds / 4, direct=False)
        checks = finish(child, load, workload, out_dir, "traced")
    finally:
        child.close()
    predicted = CalibratedCostModel.from_spec(
        IBM_4764, page_size=scale.page_size
    ).query_time(child.info["block_size"])
    layer = ledger.per_layer(workload, child.info, main, direct,
                             untraced_ops_per_s=untraced,
                             predicted_virtual_s=predicted)
    attempted = main.all.attempted + (direct.all.attempted if direct else 0)
    failed = main.all.failed + (direct.all.failed if direct else 0)
    layer["fail_rate"] = failed / max(attempted, 1)
    return {
        "metrics": layer, "attempted": attempted, "failed": failed,
        "checks": checks, "errors": main.all.errors[:5],
        "ledger": ledger.ledger_rows(workload, layer, main.phase.ops),
        "obs_rows": obs_rows(workload, child.info, main),
    }


def obs_rows(workload: Workload, info: dict, main: Traced) -> List[dict]:
    """The traced phase in ``repro.obs`` JSONL shape (one meta row, one
    phase row per span name), so ``CalibratedCostModel.from_obs_rows`` can
    be fed from the ledger file."""
    rows = [{"kind": "meta", "workload": workload.name,
             "block_size": info["block_size"],
             "queries": max(main.phase.ops, 1)}]
    table = ledger.SpanTable(main.obs["spans"])
    for name, row in sorted(table.rows.items()):
        rows.append({"kind": "phase", "workload": workload.name, "name": name,
                     "count": row["count"], "wall_s": row["total_s"],
                     "virtual_s": row["virtual_s"], "bytes": row["bytes"],
                     "errors": 0})
    return rows


def correct(result: dict) -> bool:
    return result["failed"] == 0 and all(result["checks"].values())


def print_result(name: str, result: dict, units: Dict[str, str]) -> None:
    for metric, unit in units.items():  # the contract's order
        if metric in result["metrics"]:
            print(f"  {name:<22} {metric:<26} "
                  f"{result['metrics'][metric]:>16.6f} {unit}")
    bad = [check for check, ok in result["checks"].items() if not ok]
    print(f"  {name:<22} attempted {result['attempted']} failed "
          f"{result['failed']} oracle "
          f"{'ok' if not bad else 'VIOLATED: ' + ', '.join(bad)}")
    for error in result["errors"]:
        print(f"  {name:<22} error: {error}")


def run_set(scale: Scale, seed: int, seconds: float, setups: int,
            out_dir: str, units: Dict[str, str]) -> dict:
    """Every workload, untraced then traced; returns the result document."""
    started = time.perf_counter()
    records = make_records(scale.num_pages, scale.page_size)
    document = {"workloads": {}}
    ledger_file: List[dict] = []
    for workload in WORKLOADS.values():
        began = time.perf_counter()
        untraced = run_untraced(workload, scale, seed, seconds, setups,
                                out_dir, records)
        traced = run_traced(workload, scale, seed, seconds, out_dir, records)
        print(f"{workload.name}  ({time.perf_counter() - began:.1f} s, "
              f"{untraced['samples']['calls']} timed calls in "
              f"{untraced['samples']['quiet_bursts']} quiet bursts of "
              f"{untraced['samples']['bursts']})")
        print_result(workload.name, untraced, units)
        print_result(workload.name, traced, units)
        for line in ledger.format_ledger(traced["ledger"]):
            print(line)
        residue = traced["metrics"]["ledger.residue_ratio"]
        if abs(residue) > RESIDUE_WARNING:
            print(f"WARNING {workload.name}: ledger residue "
                  f"{100 * residue:.1f} % of client.op_ms is unattributed")
        ledger_file += traced.pop("obs_rows") + traced["ledger"]
        document["workloads"][workload.name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "samples": untraced["samples"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "checks": {"untraced": untraced["checks"],
                       "traced": traced["checks"]},
            "correct": correct(untraced) and correct(traced),
        }
    document["meta"] = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "seed": seed, "seconds": seconds, "setups": setups,
        "scale": scale.name, "comparable": scale.comparable,
        "num_pages": scale.num_pages, "page_size": scale.page_size,
        "wall_s": time.perf_counter() - started,
    }
    write_jsonl(os.path.join(out_dir, "ledger.jsonl"), ledger_file)
    return document


def repeat_check(scale: Scale, seed: int, seconds: float, setups: int,
                 out_dir: str, contract: dict, units: Dict[str, str]) -> bool:
    """Two sets of runs of the same code must agree within the bounds."""
    first = run_set(scale, seed, seconds, setups, out_dir, units)
    second = run_set(scale, seed, seconds, setups, out_dir, units)
    agreed = True
    print(f"repeat-check: seed {seed}, {seconds} s per run, scale {scale.name}")
    print(f"{'workload':<22} {'metric':<18} {'first':>14} {'second':>14} "
          f"{'rel diff':>9} {'bound':>6}")
    for name in WORKLOADS:
        for metric in contract["end_to_end"]:
            a = first["workloads"][name]["end_to_end"][metric["name"]]
            b = second["workloads"][name]["end_to_end"][metric["name"]]
            rel = abs(a - b) / abs(a)
            within = rel <= metric["bound"]
            agreed = agreed and within
            print(f"{name:<22} {metric['name']:<18} {a:>14.6f} {b:>14.6f} "
                  f"{rel:>9.4f} {metric['bound']:>6} "
                  f"{'PASS' if within else 'UNRESOLVED'}")
    failed = [name for doc in (first, second) for name in WORKLOADS
              if not doc["workloads"][name]["correct"]]
    if failed:
        print("oracle violations or failed ops on: " + ", ".join(failed))
    return agreed and not failed


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny database, same code paths and checks; "
                             "numbers are not comparable")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for result.json, ledger.jsonl, spans")
    args = parser.parse_args()

    scale, seconds, setups = FULL, args.seconds, SETUPS
    if args.smoke:
        scale, seconds, setups = SMOKE, SMOKE_SECONDS, 1
    os.makedirs(args.out, exist_ok=True)
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}

    if args.workload:
        workload = WORKLOADS[args.workload]
        records = (make_records(scale.num_pages, scale.page_size)
                   if workload.clients else None)
        if args.trace:
            result = run_traced(workload, scale, args.seed, seconds,
                                args.out, records)
            for line in ledger.format_ledger(result["ledger"]):
                print(line)
        else:
            result = run_untraced(workload, scale, args.seed, seconds,
                                  setups, args.out, records)
        print_result(workload.name, result, units)
        print(json.dumps({
            "correct": correct(result), "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {metric["name"]: {
                "value": result["metrics"][metric["name"]],
                "unit": metric["unit"],
            } for metric in contract["per_layer" if args.trace
                                     else "end_to_end"]},
        }))
        return 0 if correct(result) else 1

    if args.repeat_check:
        return 0 if repeat_check(scale, args.seed, seconds, setups, args.out,
                                 contract, units) else 1

    document = run_set(scale, args.seed, seconds, setups, args.out, units)
    if not scale.comparable:
        print("smoke scale: these numbers are NOT comparable with any baseline")
    print(NOTES)
    print(f"whole set: {document['meta']['wall_s']:.1f} s")
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    ok = all(w["correct"] for w in document["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
