"""What the benchmark modules share: the interleaved timing loop and
machine-readable records (``BENCH_*.json`` at the repo root).

Every benchmark test calls :func:`record` with a section name and a
payload of timings/speedups; sections merge into one JSON file per
benchmark module so the perf trajectory is diffable across PRs and CI
runs can archive it as an artifact.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Hashable, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


def timed(fn: Callable, *args) -> Callable[[], float]:
    """A variant for :func:`interleaved_medians`: seconds of ``fn(*args)``."""

    def run() -> float:
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start

    return run


def interleaved_medians(
    variants: dict[Hashable, Callable[[], float]], rounds: int
) -> dict[Hashable, float]:
    """Median seconds per variant over ``rounds`` round-robin passes.

    Each variant returns the seconds one run took (:func:`timed` wraps a
    plain call; one whose setup must stay outside the timed region times
    itself).  Interleaving round by round makes machine-load drift hit
    every variant equally, and medians shed the stragglers, so *ratios*
    of the result stay stable on shared runners.  Callers warm their
    variants first.
    """
    seconds: dict[Hashable, list[float]] = {name: [] for name in variants}
    for _ in range(rounds):
        for name, run in variants.items():
            seconds[name].append(run())
    return {name: statistics.median(values) for name, values in seconds.items()}


def record(
    filename: str,
    section: str,
    payload: dict,
    workers: Optional[int] = None,
) -> Path:
    """Merge ``payload`` under ``section`` into ``REPO_ROOT/filename``.

    Every record stamps uniform environment metadata (python, machine,
    ``cores``, ``hostname``) under ``meta`` so any two ``BENCH_*.json``
    files are comparable at a glance.  Benchmarks that fan out pass
    ``workers=`` and the count lands in the section payload — parallel
    speedup numbers are meaningless without it.
    """
    path = REPO_ROOT / filename
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            data = {}
    meta = data.setdefault("meta", {})
    meta["python"] = platform.python_version()
    meta["machine"] = platform.machine()
    meta["cores"] = os.cpu_count() or 1
    meta["hostname"] = platform.node()
    if workers is not None:
        payload = {**payload, "workers": int(workers)}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
