#!/usr/bin/env python3
"""Database outsourcing: the two-party model of §3.1 and Figure 7.

The data owner outsources an encrypted database to an untrusted service
provider and accesses it privately — no secure coprocessor needed, because
the owner's own machine plays that role.  The network (50 ms RTT here, as in
the paper's prototype) becomes the bottleneck instead of secure memory.

Run:  python examples/two_party_outsourcing.py
"""

from __future__ import annotations

from repro.baselines import CApproxScheme, measure_latencies
from repro.twoparty import TwoPartySession


def main() -> None:
    records = [f"confidential document #{i}".encode() for i in range(300)]

    session = TwoPartySession.create(
        records,
        cache_capacity=24,
        target_c=2.0,
        page_capacity=128,
        reserve_fraction=0.1,
        rtt=0.05,              # the paper's simulated WiFi round trip
        bandwidth=2.33e6,      # effective link throughput (EXPERIMENTS.md)
        seed=5,
    )
    owner = session.owner  # a PirDatabase whose store is at the provider
    params = owner.params
    print(f"outsourced {params.num_locations} encrypted pages; "
          f"k = {params.block_size}, c = {params.achieved_c:.3f}")
    print(f"owner-side state: {owner.storage_report().total:,} bytes "
          f"(position map + cache + block buffer)")

    # -- the owner works with its data as if it were local -------------------
    assert owner.query(42) == b"confidential document #42"
    owner.update(42, b"confidential document #42 (v2)")
    new_id = owner.insert(b"late-arriving document")
    owner.delete(7)
    print(f"query/update/insert/delete all done; new page id = {new_id}")

    # -- measured latency over the simulated network --------------------------
    series = measure_latencies(
        CApproxScheme(owner), [i for i in range(11) if i != 7]
    )
    print(f"\nper-query latency: mean = {series.mean() * 1e3:.1f} ms, "
          f"max = {series.maximum() * 1e3:.1f} ms, CV = "
          f"{series.coefficient_of_variation():.2e}  (constant, no spikes)")
    print(f"round trips so far: "
          f"{session.channel.counters.get('round_trips')} "
          f"({session.channel.total_bytes:,} bytes on the wire)")

    # -- what the provider can observe ----------------------------------------
    reads = {e.count for e in session.provider.trace if e.op == "read"}
    print(f"\nprovider sees reads of sizes {sorted(reads)} pages "
          f"(always the k-block + 1 extra) and the matching writes —")
    print("re-encrypted with fresh nonces, so it cannot even tell whether a")
    print("write-back changed anything.")


if __name__ == "__main__":
    main()
