"""Benchmark-suite infrastructure.

Each bench regenerates one of the paper's tables or figures.  Numeric series
are routed through the :class:`Reporter` fixture, which (a) replays them in
pytest's terminal summary — so ``pytest benchmarks/ --benchmark-only`` prints
the reproduced figures even though per-test stdout is captured — and (b)
saves under ``benchmarks/results/`` the part a re-run reproduces byte for
byte.  What depends on the machine (wall time, MB/s, wall speed-ups, shed
counts) is a terminal-only line or column: a committed report never changes
under a re-run, and a report with nothing else writes no file.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

import pytest

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_REPORTS: Dict[str, List[str]] = {}


class Reporter:
    """Collects one experiment's text output."""

    def __init__(self, name: str):
        self.name = name
        self.lines: List[str] = []  # terminal summary: everything
        self.saved: List[str] = []  # results file: deterministic content

    def line(self, text: str = "") -> None:
        self.lines.append(text)
        self.saved.append(text)

    def note(self, text: str) -> None:
        """A terminal-only line: its content depends on the machine."""
        self.lines.append(text)

    def table(self, headers: Sequence[str], rows: Sequence[Sequence[object]],
              terminal_only: Sequence[str] = ()) -> None:
        """Show every column; save all but the ``terminal_only`` headers."""
        self.lines.extend(_render(headers, rows))
        kept = [i for i, h in enumerate(headers) if h not in terminal_only]
        if kept:
            self.saved.extend(_render([headers[i] for i in kept],
                                      [[row[i] for i in kept] for row in rows]))

    def flush(self) -> None:
        _REPORTS[self.name] = list(self.lines)
        if not self.saved:
            return
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        path = os.path.join(_RESULTS_DIR, f"{self.name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.saved) + "\n")


def _render(headers: Sequence[str],
            rows: Sequence[Sequence[object]]) -> List[str]:
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    printable = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in printable)) if printable else len(str(h))
        for i, h in enumerate(headers)
    ]
    return [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
        *("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
          for row in printable),
    ]


@pytest.fixture
def report(request):
    """Per-test reporter named after the test's module."""
    name = request.node.name.replace("[", "_").replace("]", "")
    reporter = Reporter(f"{request.module.__name__}.{name}")
    yield reporter
    reporter.flush()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("reproduced paper tables & figures")
    for name in sorted(_REPORTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(f"== {name} ==")
        for line in _REPORTS[name]:
            terminalreporter.write_line(line)
