"""Fail when a tracked evaluation-engine speedup regresses below its floor.

Reads the ``speedup <key> <value>`` lines that
``benchmarks/bench_evaluation_engine.py`` appends to
``benchmarks/results/evaluation_engine.txt`` and compares each tracked key
against the floor committed in ``benchmarks/thresholds.json``.  The CI
``bench`` job runs the benchmark and then this script; a missing key or a
ratio below its floor exits non-zero so the regression blocks the PR.

Usage::

    python benchmarks/bench_evaluation_engine.py   # writes the results file
    python benchmarks/check_thresholds.py
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_PATH = BENCH_DIR / "results" / "evaluation_engine.txt"
THRESHOLDS_PATH = BENCH_DIR / "thresholds.json"


def parse_speedups(text: str) -> dict:
    """Extract the ``speedup <key> <value>`` lines from a results file."""
    speedups = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "speedup":
            speedups[parts[1]] = float(parts[2])
    return speedups


def main() -> int:
    if not RESULTS_PATH.exists():
        print(f"error: {RESULTS_PATH} not found — run "
              "benchmarks/bench_evaluation_engine.py first")
        return 1
    thresholds = json.loads(THRESHOLDS_PATH.read_text())
    speedups = parse_speedups(RESULTS_PATH.read_text())

    failures = []
    for key, floor in sorted(thresholds.items()):
        value = speedups.get(key)
        if value is None:
            status = "MISSING"
            failures.append(key)
        elif value < floor:
            status = "FAIL"
            failures.append(key)
        else:
            status = "ok"
        shown = "—" if value is None else f"{value:.1f}x"
        print(f"{key:<28} {shown:>8}  (floor {floor:.1f}x)  {status}")

    if failures:
        print(f"\nspeedup regression in: {', '.join(failures)}")
        return 1
    print("\nall tracked speedups clear their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
