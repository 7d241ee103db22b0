"""Shared plumbing: paths, cold starts, percentiles, counters, diagnostics."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout the benchmark runs in (its working directory).
ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch space inside the checkout: temp stores, span dumps, run records.
WORK = ROOT / ".perfbench"

#: Timed cold starts per run; their median is ``setup_s``.  The harness's
#: own import of ``repro`` before them is the untimed start that writes
#: the bytecode caches.
COLD_STARTS = 3


def child_env() -> Dict[str, str]:
    """Environment for every child: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fresh_path(name: str) -> Path:
    """A path under the scratch dir, removed first (with SQLite sidecars)."""
    WORK.mkdir(exist_ok=True)
    path = WORK / name
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(str(path) + suffix).unlink(missing_ok=True)
    return path


def cold_start_s(mode: str) -> float:
    """Median wall time of fresh ``coldstart.py`` processes until ready.

    ``mode`` picks what readiness means: ``session`` (import, session) or
    ``store`` (import, session, a freshly opened SQLite store).
    """
    samples = []
    for index in range(COLD_STARTS):
        store = fresh_path(f"coldstart-{index}.sqlite")
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "coldstart.py"), mode, str(store)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"cold start failed ({mode}): {line!r}")
        fresh_path(f"coldstart-{index}.sqlite")
    return statistics.median(samples)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def class_at(samples: Sequence[tuple], q: float) -> str:
    """The request class of the sample at percentile rank ``q``."""
    ordered = sorted(samples)
    return ordered[int(round((len(ordered) - 1) * q / 100.0))][1]


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live child in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def delta(before: Dict, after: Dict) -> Dict:
    """Numeric per-key difference of two flat counter dicts."""
    return {key: after[key] - before.get(key, 0) for key in after
            if isinstance(after[key], (int, float))
            and not isinstance(after[key], bool)}


# ---------------------------------------------------------------------- #
# Diagnostics (written beside the metrics, never gated)
# ---------------------------------------------------------------------- #

def _steal_ticks() -> Optional[List[int]]:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(value) for value in fields[1:]]
    return [sum(ticks), ticks[7] if len(ticks) > 7 else 0]


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Diagnostics:
    """Host state around one run: what tells a slow host from a regression."""

    def __init__(self) -> None:
        self._steal_start = _steal_ticks()
        self.info: Dict[str, object] = {}

    def finish(self, **extra: object) -> Dict[str, object]:
        import numpy
        import scipy

        steal_end = _steal_ticks()
        steal = None
        if self._steal_start and steal_end:
            total = steal_end[0] - self._steal_start[0]
            steal = ((steal_end[1] - self._steal_start[1]) / total
                     if total else 0.0)
        self.info.update({
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "loadavg": list(os.getloadavg()),
            "steal_frac": steal,
        })
        self.info.update(extra)
        return self.info


def write_record(workload: str, seed: int, trace: bool,
                 record: Dict[str, object]) -> Path:
    """Persist the run's diagnostics and metrics under the scratch dir."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path
