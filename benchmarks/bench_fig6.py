"""Figure 6 — response time vs privacy parameter c − 1 (B = 1 KB).

Four panels with fixed caches (50k / 100k / 500k / 500k pages).  Shape
checks: response time falls monotonically with c, and the §5 claims
hold — sub-second at c = 1.1 for databases up to 100 GB; not for 1 TB.
"""

from __future__ import annotations

import pytest

from repro.analysis.costmodel import FIGURE6_C_MINUS_ONE, figure6_series
from repro.analysis.plots import ascii_plot


def test_figure6_series(report, benchmark):
    series = benchmark(figure6_series)
    for panel, points in series.items():
        report.line(f"Figure 6 ({panel} database, B = 1 KB, m fixed)")
        report.table(
            ["(c − 1)", "c", "k", "response (s)"],
            [
                [p.privacy_c - 1.0, p.privacy_c, p.block_size, p.query_time]
                for p in points
            ],
        )
        report.line()
        times = [p.query_time for p in points]
        assert times == sorted(times, reverse=True), panel
    report.line(ascii_plot(
        [
            (panel, [p.privacy_c - 1.0 for p in points],
             [p.query_time for p in points])
            for panel, points in series.items()
        ],
        log_x=True, log_y=True,
        title="Figure 6 (all panels): response time vs c − 1",
        x_label="c − 1", y_label="seconds",
    ))


def test_figure6_paper_claims(report, benchmark):
    series = benchmark(figure6_series)
    rows = []
    for panel, points in series.items():
        c11 = next(p for p in points if abs(p.privacy_c - 1.1) < 1e-9)
        rows.append([panel, c11.query_time, c11.query_time < 1.0])
    report.line("§5 claim: sub-second at c = 1.1 for DBs up to 100 GB")
    report.table(["panel", "response @ c=1.1 (s)", "sub-second"], rows)
    by_panel = dict((row[0], row[2]) for row in rows)
    assert by_panel["1GB"] and by_panel["10GB"] and by_panel["100GB"]
    assert not by_panel["1TB"]
    assert list(FIGURE6_C_MINUS_ONE)[0] == 0.01
