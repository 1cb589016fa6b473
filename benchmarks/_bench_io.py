"""Machine-readable benchmark records (``BENCH_*.json`` at the repo root).

Every benchmark test calls :func:`record` with a section name and a
payload of timings/speedups; sections merge into one JSON file per
benchmark module so the perf trajectory is diffable across PRs and CI
runs can archive it as an artifact.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


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
