"""What the seven perf-lane scripts share (``bench_engine``, ``bench_ctr``,
``bench_net``, ``bench_cluster``, ``bench_fusion``, ``bench_reshuffle``,
``bench_plan``).

A lane script runs one pinned workload, lets its in-script gates decide the
exit code, and writes only what that workload decides *exactly*: one
``meta`` row (the comparability keys ``queries`` / ``seed`` / ``pages`` /
``block_size`` / ``page_size`` plus the lane's own deterministic fields)
and ``phase`` rows of ``name`` / ``count`` / ``bytes`` / ``virtual_s``
(``errors`` where the lane measures them).  ``compare_bench.py`` diffs such
a file against its committed baseline, exactly.  Wall seconds, qps,
speed-ups and p99s go to the reader on stderr and never into the file: the
repo's one wall-clock authority is BENCH (``python3 benchmarks/e2e/run.py``),
which measures a realistic database with calibration and steal filtering —
these lanes run 64–128-page toys.

Importing this module also puts ``src/`` on ``sys.path`` when the script
runs from a checkout without ``PYTHONPATH``, so a lane script imports it
before anything from ``repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
from os import path
from typing import Dict, List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # script mode from a checkout without PYTHONPATH
    sys.path.insert(0, path.join(path.dirname(__file__), "..", "src"))

from repro.obs import write_jsonl


def parser(description: str, seed: int) -> argparse.ArgumentParser:
    """The options every lane takes; a lane adds its own count override."""
    result = argparse.ArgumentParser(
        description=f"{description} (exact JSONL for the CI perf gate)"
    )
    result.add_argument("--seed", type=int, default=seed)
    result.add_argument("--out", default="",
                        help="JSONL output path (default stdout)")
    return result


def meta_row(queries: int, seed: int, pages: int, block_size: int,
             page_size: int, **lane_fields: object) -> Dict[str, object]:
    """The run's one meta row; ``lane_fields`` must be deterministic."""
    return dict(lane_fields, kind="meta", queries=queries, seed=seed,
                pages=pages, block_size=block_size, page_size=page_size)


def phase_row(name: str, count: int, nbytes: int, virtual_s: float,
              errors: Optional[int] = None) -> Dict[str, object]:
    row: Dict[str, object] = {"kind": "phase", "name": name, "count": count,
                              "bytes": nbytes, "virtual_s": virtual_s}
    if errors is not None:
        row["errors"] = errors
    return row


def emit(rows: List[Dict[str, object]], out: str, summary: str) -> int:
    """Write ``rows`` to ``out`` (or stdout) and tell the reader the rest."""
    if out:
        write_jsonl(out, rows)
    else:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    print(f"{len(rows)} rows -> {out or 'stdout'}: {summary}",
          file=sys.stderr)
    return 0
