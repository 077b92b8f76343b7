"""Ablations of the design choices DESIGN.md calls out.

1. *Randomized vs LRU cache replacement* — the geometric eviction law
   (Eq. 1) requires uniform victims; LRU makes evictions deterministic, so
   a page's landing position becomes concentrated and the measured privacy
   ratio explodes.
2. *Round-robin block schedule* — guarantees every location is rewritten
   once per T requests; we measure scan coverage.
3. *Cipher backends* — cost of the fidelity knob (aes / shake / null).
"""

from __future__ import annotations

from repro.analysis.empirical import measure_landing_distribution
from repro.analysis.mixing import measure_displacement
from repro.analysis.plots import ascii_bar_chart
from repro.crypto.rng import SecureRandom as _SR
from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.crypto.rng import SecureRandom
from repro.hardware.cache import LRU_POLICY, RANDOM_POLICY


def _db(policy=RANDOM_POLICY, backend="null", seed=1):
    return PirDatabase.create(
        make_records(40, 16), cache_capacity=8, block_size=8,
        page_capacity=16, reserve_fraction=0.2, cache_policy=policy,
        cipher_backend=backend, trace_enabled=False, seed=seed,
    )


def test_cache_policy_ablation(report, benchmark):
    rows = []
    for policy in (RANDOM_POLICY, LRU_POLICY):
        db = _db(policy=policy, seed=3)
        experiment = measure_landing_distribution(
            db, trials=600, rng=SecureRandom(31)
        )
        rows.append([
            policy,
            db.params.achieved_c,
            experiment.empirical_c(),
            max(experiment.offset_counts) / sum(experiment.offset_counts),
        ])
    benchmark(lambda: None)
    report.line("ablation: cache replacement policy (Eq. 1 requires random)")
    report.table(
        ["policy", "c promised (Eq. 5)", "c measured", "max offset share"],
        rows,
    )
    random_row, lru_row = rows
    # Random replacement honours the bound; LRU concentrates the landing
    # distribution far beyond it.
    assert random_row[2] < random_row[1] * 1.4
    assert lru_row[2] > 5 * lru_row[1]
    # Essentially deterministic landing offset (a page is evicted exactly m
    # requests after entering; the residue below 1.0 comes from trials whose
    # tracked page was already cache-resident with a stale LRU age).
    assert lru_row[3] > 0.7


def test_round_robin_scan_coverage(report, benchmark):
    """Every disk location is written exactly once per scan period."""
    db = _db(seed=4)
    db.disk.trace.enabled = True
    period = db.params.scan_period
    for _ in range(period):
        db.touch()
    writes = db.trace.location_write_counts()
    block_writes = {
        loc: count
        for loc, count in writes.items()
    }
    benchmark(lambda: db.touch())
    covered = sum(1 for loc in range(db.params.num_locations)
                  if block_writes.get(loc, 0) >= 1)
    report.line("round-robin coverage after one scan period")
    report.table(
        ["locations", "written >= once", "scan period T"],
        [[db.params.num_locations, covered, period]],
    )
    assert covered == db.params.num_locations


def test_long_run_mixing(report, benchmark):
    """Beyond Definition 1: the layout keeps mixing — mean page displacement
    converges to the uniform-placement expectation (~n/4 circular)."""
    db = _db(seed=7)
    series = benchmark.pedantic(
        lambda: measure_displacement(db, total_requests=1000, checkpoints=5,
                                     rng=_SR(71)),
        rounds=1, iterations=1,
    )
    report.line("mean displacement from the initial layout (n = "
                f"{series.num_locations}, uniform expectation "
                f"{series.uniform_expectation:.1f})")
    report.line(ascii_bar_chart(
        [str(c) for c in series.checkpoints],
        series.mean_displacement,
        title="requests -> mean circular displacement",
    ))
    assert 0.6 < series.final_relative_to_uniform() < 1.5


def test_cipher_backend_cost(report, benchmark):
    """Wall-clock cost of a query per backend (the simulation-fidelity knob)."""
    import time

    rows = []
    for backend in ("null", "shake", "aes"):
        db = _db(backend=backend, seed=5)
        started = time.perf_counter()
        count = 30
        for i in range(count):
            db.query(i % 40)
        elapsed = (time.perf_counter() - started) / count
        rows.append([backend, elapsed * 1e3])
    db = _db(backend="shake", seed=6)
    benchmark(lambda: db.query(7))
    headers = ["backend", "ms / query (this machine)"]
    report.note("wall-clock per executed query by cipher backend (k = 8)")
    report.table(headers, rows, terminal_only=headers)
    by_name = {row[0]: row[1] for row in rows}
    assert by_name["null"] <= by_name["aes"]
