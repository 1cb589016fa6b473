"""Tier-1 wall budget: every unfiltered ``pytest`` session leaves
``BENCH_tests.json`` at the repo root — total wall seconds, host shape
(cores, C compiler) and the 20 slowest tests — so a suite that creeps
(or a cell that hangs on one host shape, as the native × process cell
did) is a number in the ``BENCH_*.json`` artifact, not an anecdote.  CI
fails the tier-1 step when ``total_s`` exceeds 300.

Sessions narrowed by path, ``-k`` or ``-m`` (the named CI re-runs, a
developer's single file) do not write: their total is not the suite's.
"""

import json
import os
import time

from repro.nn.backend.native_build import find_compiler

_STARTED = time.perf_counter()
_DURATIONS: dict[str, float] = {}


def pytest_runtest_logreport(report):
    _DURATIONS[report.nodeid] = _DURATIONS.get(report.nodeid, 0.0) + report.duration


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    narrowed = config.option.keyword or config.option.markexpr
    if narrowed or config.args != [str(config.invocation_params.dir)]:
        return
    slowest = sorted(_DURATIONS.items(), key=lambda item: -item[1])[:20]
    record = {
        "total_s": round(time.perf_counter() - _STARTED, 3),
        "exitstatus": int(exitstatus),
        "tests": len(_DURATIONS),
        "cores": os.cpu_count() or 1,
        "compiler": find_compiler() is not None,
        "slowest": [{"id": nodeid, "s": round(seconds, 3)} for nodeid, seconds in slowest],
    }
    with open(config.rootpath / "BENCH_tests.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
