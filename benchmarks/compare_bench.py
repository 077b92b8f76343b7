"""Exact per-phase diff of two perf-lane JSONL runs — the CI perf gate.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py BASELINE CURRENT

Exit status 0 when the current run matches the baseline, 1 on any
mismatch, 2 on malformed/incomparable inputs.

A lane file holds only what a pinned-seed workload decides *exactly*:
``count``, ``bytes`` and ``errors`` (compared wherever the baseline row
records it) must be equal, ``virtual_s`` — the cost charged to the virtual
clock — equal to a relative 1e-9.  A mismatch means the engine's access
pattern or a record length changed — a correctness-class finding, never
noise.  Wall time is not in these files and is not compared here: the
repo's one wall-clock authority is BENCH (``python3 benchmarks/e2e/run.py``).

New phases (in current but not baseline) are reported but never gated;
phases that *disappear* are gated, since losing a span usually means an
instrumentation or code-path break.
"""

from __future__ import annotations

import argparse
import sys
from os import path
from typing import Dict, List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # script mode from a checkout without PYTHONPATH
    sys.path.insert(0, path.join(path.dirname(__file__), "..", "src"))

from repro.obs import read_jsonl, rows_by_kind

_VIRTUAL_REL_TOL = 1e-9

# Every phase row must carry these columns; a row missing one is malformed
# input (exit 2), not a silent KeyError traceback mid-comparison.
_PHASE_COLUMNS = ("count", "bytes", "virtual_s")


def load_run(file_path: str) -> Dict[str, object]:
    """Load one JSONL run: its meta row plus phase rows keyed by name."""
    rows = read_jsonl(file_path)
    metas = rows_by_kind(rows, "meta")
    phases = rows_by_kind(rows, "phase")
    if len(metas) != 1 or not phases:
        raise ValueError(
            f"{file_path}: expected exactly one meta row and at least one "
            f"phase row, found {len(metas)} meta / {len(phases)} phase"
        )
    for row in phases:
        if "name" not in row:
            raise ValueError(
                f"{file_path}: phase row without a 'name' column: {row!r}"
            )
        missing = [key for key in _PHASE_COLUMNS if key not in row]
        if missing:
            raise ValueError(
                f"{file_path}: phase {row['name']!r} is missing "
                f"column(s) {', '.join(missing)} — run is malformed"
            )
    return {
        "meta": metas[0],
        "phases": {row["name"]: row for row in phases},
    }


def _check_comparable(base_meta: dict, cur_meta: dict) -> None:
    problems = [
        f"{key!r}: baseline {base_meta.get(key)} vs current {cur_meta.get(key)}"
        for key in ("queries", "seed", "pages", "block_size", "page_size")
        if base_meta.get(key) != cur_meta.get(key)
    ]
    if problems:
        raise ValueError(
            f"meta mismatch on {'; '.join(problems)} — runs are not comparable"
        )


def compare_runs(
    baseline: Dict[str, object],
    current: Dict[str, object],
) -> "tuple[List[List[object]], List[str]]":
    """Per-phase table plus the list of mismatch descriptions.

    Raises :class:`ValueError` when a current row lacks the ``errors``
    column its baseline row records (malformed, like any missing column).
    """
    base_phases: Dict[str, dict] = baseline["phases"]  # type: ignore[assignment]
    cur_phases: Dict[str, dict] = current["phases"]  # type: ignore[assignment]

    table: List[List[object]] = []
    regressions: List[str] = []

    for name in sorted(set(base_phases) | set(cur_phases)):
        base = base_phases.get(name)
        cur = cur_phases.get(name)
        if base is None:
            table.append([name, cur["count"], cur["bytes"],
                          cur["virtual_s"], "new"])
            continue
        exact = ("count", "bytes") + (("errors",) if "errors" in base else ())
        if cur is None:
            # Spell out what the baseline recorded, column by column, so the
            # CI log shows exactly which measurements vanished.
            lost = ", ".join(
                f"{key}={base[key]!r} -> absent"
                for key in exact + ("virtual_s",)
            )
            regressions.append(
                f"{name}: phase disappeared from current run ({lost})"
            )
            table.append([name, base["count"], base["bytes"],
                          base["virtual_s"], "MISSING"])
            continue

        before = len(regressions)
        for key in exact:
            if key not in cur:
                raise ValueError(
                    f"current phase {name!r} is missing column {key} the "
                    "baseline records — run is malformed"
                )
            if base[key] != cur[key]:
                regressions.append(
                    f"{name}: deterministic {key} changed "
                    f"{base[key]} -> {cur[key]}"
                )
        base_virtual = float(base["virtual_s"])
        cur_virtual = float(cur["virtual_s"])
        tolerance = _VIRTUAL_REL_TOL * max(abs(base_virtual), 1.0)
        if abs(base_virtual - cur_virtual) > tolerance:
            regressions.append(
                f"{name}: deterministic virtual_s changed "
                f"{base_virtual!r} -> {cur_virtual!r}"
            )
        table.append([
            name, cur["count"], cur["bytes"], cur["virtual_s"],
            "ok" if len(regressions) == before else "CHANGED",
        ])
    return table, regressions


def _print_table(rows: List[List[object]]) -> None:
    headers = ["phase", "count", "bytes", "virtual_s", "status"]
    printable = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in printable))
        for i in range(len(headers))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in printable:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="exact diff of two perf-lane JSONL runs; exit 1 on "
                    "any mismatch"
    )
    parser.add_argument("baseline", help="committed baseline JSONL")
    parser.add_argument("current", help="freshly produced JSONL")
    args = parser.parse_args(argv)

    try:
        baseline = load_run(args.baseline)
        current = load_run(args.current)
        _check_comparable(baseline["meta"], current["meta"])
        table, regressions = compare_runs(baseline, current)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_table(table)
    if regressions:
        print(f"\n{len(regressions)} regression(s):")
        for regression in regressions:
            print(f"  - {regression}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
