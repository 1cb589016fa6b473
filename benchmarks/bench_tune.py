"""Bench: the tune subsystem's parallel trial runner.

Runs the same tiny 6-trial grid search twice — serially and on a
4-worker process pool — and records both wall times, trial rates and
the parallel speedup into ``BENCH_tune.json``.  The trials themselves
are deterministic, so the two runs do identical work and the ratio is a
clean measurement of the runner's process-pool scaling.

Gate (blocking in CI, where runners have >= 4 cores): parallel must be
>= 1.5x serial on 4 workers.  Six ~seconds-long trials over 4 workers
schedule as two waves, so the ideal is ~3x and 1.5x leaves margin for
pool start-up and core contention; on machines with fewer than 4 cores
the gate is recorded but skipped (process parallelism cannot beat the
physical core count).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_tune.py -q
"""

import os
import time

import pytest

from _bench_io import record
from repro.tune import Grid, GridSearch, SearchRunner, SearchSpace

MIN_PARALLEL_SPEEDUP = 1.5
NUM_TRIALS = 6
WORKERS = 4

#: Small enough that 12 trial runs stay benchmark-scale, big enough that
#: one trial (~seconds) dwarfs process-pool start-up.
TRIAL_PARAMS = dict(
    model="VGG13", dataset="Cifar10", num_train=128, num_val=64,
    batch_size=32, epochs=4, lr=0.02,
)


def _search():
    space = SearchSpace(
        {
            "kind": "adaptive",
            "threshold_scale": Grid(1.0, 4.0, 16.0),
            "warmup_epochs": Grid(1, 2),
        }
    )
    return GridSearch(space, **TRIAL_PARAMS)


def test_bench_parallel_runner_gate(benchmark):
    search = _search()
    specs = search.specs()

    # Warm the trial path once (BLAS planning, template caches) so the
    # serial measurement doesn't carry one-time costs the pooled workers
    # would each pay anyway.
    SearchRunner().run(specs[:1])

    times: dict[str, float] = {}

    def measure():
        for name, workers in (("serial", 1), ("parallel", WORKERS)):
            runner = SearchRunner(workers=workers)
            start = time.perf_counter()
            results = runner.run(specs)
            times[name] = time.perf_counter() - start
            assert all(r.status == "ok" for r in results)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = times["serial"] / times["parallel"]
    cores = os.cpu_count() or 1
    benchmark.extra_info["serial_s"] = times["serial"]
    benchmark.extra_info["parallel_s"] = times["parallel"]
    benchmark.extra_info["speedup"] = speedup
    record(
        "BENCH_tune.json",
        "parallel_runner",
        {
            "model": "VGG13-mini",
            "num_trials": NUM_TRIALS,
            "serial_s": times["serial"],
            "parallel_s": times["parallel"],
            "serial_trials_per_s": NUM_TRIALS / times["serial"],
            "parallel_trials_per_s": NUM_TRIALS / times["parallel"],
            "speedup": speedup,
            "gate": MIN_PARALLEL_SPEEDUP,
            "gate_enforced": cores >= WORKERS,
        },
        workers=WORKERS,
    )
    print(
        f"\n{NUM_TRIALS}-trial search: serial {times['serial']:.2f} s, "
        f"{WORKERS}-worker {times['parallel']:.2f} s ({speedup:.2f}x, "
        f"{cores} cores)"
    )
    if cores < WORKERS:
        pytest.skip(
            f"only {cores} core(s): {WORKERS}-process parallelism cannot "
            f"reach the {MIN_PARALLEL_SPEEDUP}x gate (recorded, not enforced)"
        )
    assert speedup >= MIN_PARALLEL_SPEEDUP


def test_bench_journal_overhead(benchmark, tmp_path):
    """Journaling must be cheap: a journaled serial run vs a bare one.

    Also re-checks the resume contract under benchmark conditions — the
    second journaled run executes zero trials.
    """
    search = _search()
    specs = search.specs()
    SearchRunner().run(specs[:1])  # warm

    journal = tmp_path / "bench.jsonl"
    timings: dict[str, float] = {}

    def measure():
        start = time.perf_counter()
        SearchRunner().run(specs)
        timings["bare"] = time.perf_counter() - start
        runner = SearchRunner(journal=journal)
        start = time.perf_counter()
        runner.run(specs)
        timings["journaled"] = time.perf_counter() - start
        assert runner.executed == NUM_TRIALS
        resumed = SearchRunner(journal=journal)
        start = time.perf_counter()
        resumed.run(specs)
        timings["resumed"] = time.perf_counter() - start
        assert resumed.executed == 0

    benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = timings["journaled"] / timings["bare"] - 1.0
    record(
        "BENCH_tune.json",
        "journal",
        {
            "bare_s": timings["bare"],
            "journaled_s": timings["journaled"],
            "resumed_s": timings["resumed"],
            "overhead_fraction": overhead,
        },
    )
    print(
        f"\njournal overhead: bare {timings['bare']:.2f} s, journaled "
        f"{timings['journaled']:.2f} s (+{overhead:.1%}); resume "
        f"{timings['resumed']:.3f} s for {NUM_TRIALS} cached trials"
    )
    # Resume must be orders of magnitude faster than re-running.
    assert timings["resumed"] < timings["bare"] / 5
