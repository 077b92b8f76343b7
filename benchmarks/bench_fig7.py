"""Figure 7 — the two-party (outsourcing) model on a 1 TB database (c = 2).

(a) 1 KB pages (n = 10^9), (b) 10 KB pages (n = 10^8); response time and
owner-side storage vs cache size, with a 50 ms RTT network.

Two parts:
1. the analytical series at full paper scale (network bandwidth calibrated
   to the paper's 0.737 s anchor — see EXPERIMENTS.md);
2. an *executed* session at the paper's block size but reduced n, over the
   simulated channel, showing the measured latency lands near the model.
"""

from __future__ import annotations

import pytest

from repro.analysis.costmodel import TwoPartyCostModel, figure7_series
from repro.analysis.plots import ascii_plot
from repro.baselines import CApproxScheme, make_records, measure_latencies
from repro.twoparty import TwoPartySession


def test_figure7_series(report, benchmark):
    series = benchmark(figure7_series)
    for panel, points in series.items():
        report.line(f"Figure 7 ({panel} pages, 1 TB database, c = 2)")
        report.table(
            ["m (pages)", "k", "response (s)", "owner storage (GB)"],
            [
                [p.cache_pages, p.block_size, p.query_time, p.secure_storage_gb]
                for p in points
            ],
        )
        report.line()
        times = [p.query_time for p in points]
        storages = [p.secure_storage_bytes for p in points]
        assert times == sorted(times, reverse=True), panel
        assert storages == sorted(storages), panel
    report.line(ascii_plot(
        [
            (panel, [p.cache_pages for p in points],
             [p.query_time for p in points])
            for panel, points in series.items()
        ],
        log_x=True, log_y=True,
        title="Figure 7: two-party response time vs cache size",
        x_label="m", y_label="seconds",
    ))
    # Paper's measured anchors.
    assert series["1KB"][-1].query_time == pytest.approx(0.737, rel=0.05)
    assert series["1KB"][-1].secure_storage_gb == pytest.approx(5.9, rel=0.05)
    assert series["10KB"][-1].secure_storage_gb > 10


def test_figure7_executed_session(report, benchmark):
    """Run the real protocol with the paper's k = 722 (the m = 2M point of
    panel (a)) against a reduced-n provider; the wire bytes per query are
    identical to full scale, so the measured latency isolates exactly the
    network + disk costs the model charges."""
    k = 722
    session = TwoPartySession.create(
        make_records(2 * k, 32),
        cache_capacity=16,
        block_size=k,
        page_capacity=1024,
        seed=7,
        rtt=0.05,
        bandwidth=2.33e6,
    )

    def one_query():
        return session.owner.query(5)

    benchmark.pedantic(one_query, rounds=3, iterations=1)
    series = measure_latencies(CApproxScheme(session.owner), [1, 2, 3])
    model = TwoPartyCostModel().query_time(k, session.owner.cop.frame_size)
    report.line("executed two-party session at k = 722 (paper's 1KB/2M point)")
    report.table(
        ["quantity", "seconds"],
        [
            ["measured (virtual clock)", series.mean()],
            ["cost model", model],
            ["paper (measured on WiFi)", 0.737],
        ],
    )
    # Executed protocol should be within ~25% of the calibrated model (the
    # protocol pays one extra RTT versus the model's single-RTT idealisation).
    assert series.mean() == pytest.approx(model, rel=0.25)
