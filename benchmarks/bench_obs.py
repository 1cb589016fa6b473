"""Bench: observability overhead on a real ADA-GP fit (blocking gate).

One ResNet50-mini BP+GP fit (fused backend), four instrumentation
levels measured in the same process with interleaved rounds so machine
drift hits every level equally:

* ``baseline`` — no obs attached: the null global tracer, no registry
  (the engine still pushes its unconditional phase scope and asks the
  null tracer for its spans — that cost is part of every run and
  therefore part of the baseline);
* ``disabled`` — the full obs stack attached but the tracer switched
  off: the engine attached to a metrics registry, a disabled
  ``Tracer`` installed globally (every seam branches on
  ``tracer.enabled`` and takes the shared-null-context path);
* ``enabled`` — the same stack with tracing on: spans buffered per
  fit/epoch/batch/eval/predictor call, the engine's count owners read
  at a snapshot;
* ``profiled`` — ``enabled`` plus a ``ProfilingBackend`` timing the
  hot ops at its documented low-overhead decimation
  (``sample_every=4`` — counts are scaled back, so totals stay
  unbiased; ``sample_every=1`` times every op and costs ~5% here, the
  price of the full Fig-15 table).

Blocking CI gate (the ISSUE 10 acceptance bar): disabled <= 2% and
enabled <= 5% median wall overhead over baseline; the sampled profiler
must also stay inside the enabled budget.  Emits ``BENCH_obs.json``.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_obs.py -q
"""

import time
from functools import partial

import numpy as np

from _bench_io import interleaved_medians, record
from repro import obs
from repro.core import HeuristicSchedule, adagp_engine
from repro.data import synthetic_images
from repro.models import build_mini
from repro.nn.backend import FusedBackend
from repro.nn.losses import CrossEntropyLoss, accuracy

MAX_DISABLED_OVERHEAD = 0.02
MAX_ENABLED_OVERHEAD = 0.05
PROFILER_SAMPLE_EVERY = 4

LEVELS = ("baseline", "disabled", "enabled", "profiled")


def _fit_once(level):
    """One full adagp fit at the given instrumentation level; returns
    (wall_seconds, span_count).  Model/engine construction happens
    outside the timed region; every level runs bit-identical work."""
    split = synthetic_images(10, 48, 32, image_size=16, seed=0)
    schedule = HeuristicSchedule(warmup_epochs=1, ladder=((4, (2, 1)),))
    backend = FusedBackend()
    tracer = registry = None
    if level != "baseline":
        tracer = obs.Tracer(enabled=(level != "disabled"))
        registry = obs.MetricsRegistry()
        if level == "profiled":
            backend = obs.ProfilingBackend(
                backend, registry=registry, sample_every=PROFILER_SAMPLE_EVERY
            )
    engine = adagp_engine(
        build_mini("ResNet50", 10, rng=np.random.default_rng(1)),
        CrossEntropyLoss(),
        lr=0.05,
        metric_fn=accuracy,
        schedule=schedule,
        backend=backend,
    )
    if registry is not None:
        registry.attach(engine)

    def fit():
        return engine.fit(
            split.train.epochs(16, 2),
            split.val.epochs(32),
            epochs=3,
        )

    previous = obs.set_tracer(tracer) if tracer is not None else None
    try:
        start = time.perf_counter()
        fit()
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            obs.set_tracer(previous)
    return elapsed, len(tracer.spans) if tracer is not None else 0


def test_bench_obs_overhead_gate(benchmark):
    for level in LEVELS:  # warm: BLAS planning, workspace pools, caches
        _fit_once(level)

    spans = {level: 0 for level in LEVELS}

    def fit_seconds(level):  # _fit_once times the fit only, not the engine build
        elapsed, spans[level] = _fit_once(level)
        return elapsed

    medians = benchmark.pedantic(
        interleaved_medians,
        args=({level: partial(fit_seconds, level) for level in LEVELS}, 7),
        rounds=1,
        iterations=1,
    )
    overhead = {
        level: medians[level] / medians["baseline"] - 1.0
        for level in LEVELS[1:]
    }
    benchmark.extra_info["baseline_ms"] = medians["baseline"] * 1e3
    for level, value in overhead.items():
        benchmark.extra_info[f"{level}_overhead"] = value
    record(
        "BENCH_obs.json",
        "overhead",
        {
            "model": "ResNet50-mini",
            "batch": 16,
            "backend": "fused",
            "profiler_sample_every": PROFILER_SAMPLE_EVERY,
            **{f"{level}_fit_ms": medians[level] * 1e3 for level in LEVELS},
            **{f"{level}_overhead": overhead[level] for level in LEVELS[1:]},
            "enabled_spans_per_fit": spans["enabled"],
            "gate": {
                "disabled": MAX_DISABLED_OVERHEAD,
                "enabled": MAX_ENABLED_OVERHEAD,
            },
        },
    )
    print(
        f"\nResNet50-mini adagp fit: baseline {medians['baseline'] * 1e3:.1f} ms; "
        + ", ".join(
            f"{level} {medians[level] * 1e3:.1f} ms ({overhead[level]:+.1%})"
            for level in LEVELS[1:]
        )
        + f"; {spans['enabled']} spans/fit"
    )
    # The disabled stack must be near-free and the full stack cheap —
    # the acceptance bar that makes always-attached observability viable.
    assert overhead["disabled"] <= MAX_DISABLED_OVERHEAD
    assert overhead["enabled"] <= MAX_ENABLED_OVERHEAD
    assert overhead["profiled"] <= MAX_ENABLED_OVERHEAD
