"""Bench: TrainingEngine throughput and the backend/predictor fast paths.

Three measurements seed the perf trajectory of the engine refactor, all
recorded into ``BENCH_engine.json`` for cross-PR tracking:

1. **Batched vs per-layer predictor updates** — the BP-phase hot path.
   Both are entry points of the same dense path (DESIGN.md §4): a
   first GEMM over the stacked planes and one head GEMM per distinct
   row width.  ``GradientPredictor.train_step_many`` runs all layers
   through one forward/backward and one Adam step where the per-layer
   loop pays 18 of each plus 18 dense-operator rebuilds.  On all 18
   predictable ResNet50-mini layers (the paper's all-layer arm, so
   both predictors are sized with ``for_model(model, all_layers=True)``;
   11 row widths) it must be >= 1.5x faster.
2. **BP-phase vs GP-phase batches/sec** through the engine — Phase GP
   skips the whole backward pass, so its software rate must beat the
   BP-phase rate even in NumPy, mirroring the accelerator-model claim.
3. **FusedBackend vs NumpyBackend** on a full ResNet50-mini BP batch —
   the blocking CI gate of the backend refactor (>= 1.3x; both numbers
   come from the same process, so machine noise largely cancels).
4. **GP-stream fast path** (``BENCH_gp.json``) — one full BP training
   step vs a no-grad GP step (one stacked predict + grouped apply) on
   the fused backend, plus workspace-pool counters as the
   peak-allocation proxy.  Blocking CI gate: the GP step must be
   >= 1.5x faster than the BP step (the paper's Phase-GP asymmetry,
   measured rather than simulated).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -q
"""

import time

import numpy as np

from _bench_io import interleaved_medians, record, timed
from repro import nn
from repro.core import (
    GradientPredictor,
    HeuristicSchedule,
    Phase,
    ThroughputTimer,
    adagp_engine,
)
from repro.data import synthetic_images
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss
from repro.obs import MetricsRegistry

MIN_BATCHED_SPEEDUP = 1.5
MIN_FUSED_SPEEDUP = 1.3
MIN_GP_STREAM_SPEEDUP = 1.5


def _resnet_entries(seed=0):
    """(layer, activation, weight_grad, bias_grad) from one real backprop
    batch of the ResNet50 mini — the predictor's actual training input."""
    model = build_mini("ResNet50", 10, rng=np.random.default_rng(seed + 1))
    layers = nn.graph.trace(model).predictable
    activations = {}

    def hook(layer, output):
        activations[id(layer)] = output

    for layer in layers:
        layer.forward_hook = hook
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((16, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, 16)
    try:
        outputs = model(x)
    finally:
        for layer in layers:
            layer.forward_hook = None
    _, grad = CrossEntropyLoss()(outputs, y)
    model.zero_grad()
    model.backward(grad)
    entries = [
        (
            layer,
            activations[id(layer)],
            layer.weight.grad,
            layer.bias.grad if layer.bias is not None else None,
        )
        for layer in layers
    ]
    return model, entries


def test_bench_batched_predictor_fast_path(benchmark):
    model, entries = _resnet_entries()
    sequential = GradientPredictor.for_model(
        model, all_layers=True, rng=np.random.default_rng(5)
    )
    batched = GradientPredictor.for_model(
        model, all_layers=True, rng=np.random.default_rng(5)
    )
    layers = [e[0] for e in entries]
    outputs = [e[1] for e in entries]
    w_grads = [e[2] for e in entries]
    b_grads = [e[3] for e in entries]

    def run_sequential():
        for layer, output, w_grad, b_grad in entries:
            sequential.train_step(layer, output, w_grad, b_grad)

    def run_batched():
        batched.train_step_many(layers, outputs, w_grads, b_grads)

    # Warm both paths (scale estimates, BLAS planning) before timing.
    run_sequential()
    run_batched()
    rounds = 15
    start = time.perf_counter()
    for _ in range(rounds):
        run_sequential()
    sequential_s = (time.perf_counter() - start) / rounds

    benchmark.pedantic(run_batched, rounds=rounds, iterations=1)
    batched_s = benchmark.stats.stats.mean

    speedup = sequential_s / batched_s
    benchmark.extra_info["num_layers"] = len(entries)
    benchmark.extra_info["sequential_ms"] = sequential_s * 1e3
    benchmark.extra_info["batched_ms"] = batched_s * 1e3
    benchmark.extra_info["speedup"] = speedup
    record(
        "BENCH_engine.json",
        "batched_predictor",
        {
            "num_layers": len(entries),
            "sequential_ms": sequential_s * 1e3,
            "batched_ms": batched_s * 1e3,
            "speedup": speedup,
            "gate": MIN_BATCHED_SPEEDUP,
        },
    )
    print(
        f"\npredictor update, {len(entries)} ResNet50-mini layers: "
        f"sequential {sequential_s * 1e3:.2f} ms, batched {batched_s * 1e3:.2f} ms "
        f"({speedup:.2f}x)"
    )
    assert speedup >= MIN_BATCHED_SPEEDUP


def test_bench_engine_phase_rates(benchmark):
    """Batches/sec for BP-phase vs GP-phase batches through the engine."""
    split = synthetic_images(10, 96, 32, image_size=16, seed=0)
    timer = ThroughputTimer()
    engine = adagp_engine(
        build_mini("ResNet50", 10, rng=np.random.default_rng(1)),
        CrossEntropyLoss(),
        lr=0.05,
        schedule=HeuristicSchedule(warmup_epochs=1, ladder=((8, (2, 1)),)),
        callbacks=(timer,),
    )

    def run():
        return engine.fit(
            split.train.epochs(16, 2),
            split.val.epochs(32),
            epochs=4,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    # Rates come out of the timer's own snapshot, and the snapshot rides
    # along in the record — the bench numbers and the engine's summary()
    # share one source.
    snapshot = timer.snapshot()
    bp_rate = snapshot[Phase.BP.value]["batches_per_second"]
    warmup_rate = snapshot[Phase.WARMUP.value]["batches_per_second"]
    gp_rate = snapshot[Phase.GP.value]["batches_per_second"]
    benchmark.extra_info["bp_batches_per_s"] = bp_rate
    benchmark.extra_info["warmup_batches_per_s"] = warmup_rate
    benchmark.extra_info["gp_batches_per_s"] = gp_rate
    record(
        "BENCH_engine.json",
        "phase_rates",
        {
            "bp_batches_per_s": bp_rate,
            "warmup_batches_per_s": warmup_rate,
            "gp_batches_per_s": gp_rate,
            "gp_over_bp": gp_rate / bp_rate,
            "throughput": snapshot,
        },
    )
    print(f"\n{timer.summary()}")
    # Skipping backward must pay off in software too.
    assert gp_rate > bp_rate


def test_bench_gp_stream_gate(benchmark):
    """No-grad Phase-GP steps vs a full BP training step (blocking gate).

    Two step kinds through the engine on ResNet50-mini, fused backend:

    * ``bp`` — plain backprop training batch (forward + loss grad + full
      backward + optimizer step), no predictor training: the §3.4
      baseline cost;
    * ``gp`` — Phase GP: the no-grad forward, then one stacked
      ``predict_many`` and a grouped optimizer apply.

    Gate: the no-grad GP step is >= 1.5x faster than the BP step.
    Workspace-pool counters around a GP step are recorded as the
    peak-allocation proxy — a warm no-grad stream must run miss-free
    with zero outstanding checkouts.
    """
    from repro.core.engine.strategies import (
        BackpropStrategy,
        GradPredictStrategy,
    )
    from repro.nn.backend import backend_scope

    loss_fn = CrossEntropyLoss()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, 16)
    engine = adagp_engine(
        build_mini("ResNet50", 10, rng=np.random.default_rng(1)),
        loss_fn,
        lr=0.05,
        backend="fused",
    )
    # Plain BP (no predictor training) for the paper-faithful baseline.
    strategies = {
        "bp": BackpropStrategy(),
        "gp": GradPredictStrategy(),
    }
    for strategy in strategies.values():
        strategy.bind(engine)

    pool = nn.get_backend("fused").pool

    def step(name):
        phase = Phase.BP if name == "bp" else Phase.GP
        with backend_scope(engine.backend):
            strategies[name].train_batch(x, y, phase)
        engine.model.clear_caches()

    # Warm every path (BLAS planning, workspace pool, predictor scales).
    for name in strategies:
        step(name)
        step(name)

    # Pool counters across one warm GP step: the peak-allocation
    # proxy.  A no-grad stream must be allocation-free (all workspace
    # acquisitions served by the pool) and leave nothing checked out.
    # Nothing resets the pool's counters, so the step's own numbers are
    # a before/after delta of the registry's view of it.
    registry = MetricsRegistry()
    registry.attach(pool)
    before = registry.snapshot()
    step("gp")
    pool_stats = {
        name.removeprefix("repro_backend_pool_"): entry["series"][""]
        for name, entry in MetricsRegistry.delta(registry.snapshot(), before).items()
    }

    # Per-variant blocks of rounds (a GP step mutates weights, so the
    # variants cannot share one model state trajectory anyway); each
    # block is short enough that machine drift between blocks stays
    # well inside the gate margin.
    rounds = 25
    times: dict[str, list[float]] = {name: [] for name in strategies}

    def measure():
        for name in strategies:
            for _ in range(rounds):
                start = time.perf_counter()
                step(name)
                times[name].append(time.perf_counter() - start)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    medians = {
        name: float(np.median(values)) for name, values in times.items()
    }
    speedup = medians["bp"] / medians["gp"]
    benchmark.extra_info["bp_ms"] = medians["bp"] * 1e3
    benchmark.extra_info["gp_ms"] = medians["gp"] * 1e3
    benchmark.extra_info["gp_speedup"] = speedup
    record(
        "BENCH_gp.json",
        "gp_stream",
        {
            "model": "ResNet50-mini",
            "batch": 16,
            "backend": "fused",
            "bp_step_ms": medians["bp"] * 1e3,
            "gp_step_ms": medians["gp"] * 1e3,
            "gp_speedup": speedup,
            "gate": MIN_GP_STREAM_SPEEDUP,
            "gp_step_pool": pool_stats,
        },
    )
    print(
        f"\nResNet50-mini steps: bp {medians['bp'] * 1e3:.2f} ms, "
        f"gp {medians['gp'] * 1e3:.2f} ms ({speedup:.2f}x); "
        f"gp-step pool {pool_stats}"
    )
    # The no-grad stream must be allocation-free once the pool is warm.
    assert pool_stats["misses"] == 0
    assert pool_stats["outstanding"] == 0
    # The no-grad stream is the blocking 1.5x gate.
    assert speedup >= MIN_GP_STREAM_SPEEDUP


def _time_op(fn, rounds=30):
    fn()  # warm (BLAS planning, workspace allocation, path caches)
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def _op_microbench():
    """Per-op NumPy-vs-Fused timings for the BENCH_engine.json record."""
    rng = np.random.default_rng(3)
    x_conv = rng.standard_normal((16, 32, 16, 16)).astype(np.float32)
    w3 = rng.standard_normal((32, 32, 3, 3)).astype(np.float32)
    w1 = rng.standard_normal((64, 32, 1, 1)).astype(np.float32)
    g3 = rng.standard_normal((16, 32, 16, 16)).astype(np.float32)
    x_lin = rng.standard_normal((256, 512)).astype(np.float32)
    w_lin = rng.standard_normal((128, 512)).astype(np.float32)
    q = rng.standard_normal((8, 4, 64, 32)).astype(np.float32)
    x_bn = rng.standard_normal((16, 64, 16, 16)).astype(np.float32)
    g_bn = rng.standard_normal(x_bn.shape).astype(np.float32)
    gamma = rng.standard_normal(64).astype(np.float32)
    beta = rng.standard_normal(64).astype(np.float32)

    def ops_for(backend):
        def conv3x3():
            _, ctx = backend.conv2d_forward(x_conv, w3, None, 1, 1)
            backend.conv2d_backward(g3, w3, ctx)

        def batchnorm():
            ctx = backend.batchnorm_forward(x_bn, gamma, beta, 1e-5)[3]
            backend.batchnorm_backward(g_bn, gamma, ctx, True)

        return {
            "conv3x3_fwd_bwd": conv3x3,
            "conv1x1_fwd": lambda: backend.conv2d_forward(x_conv, w1, None, 1, 0),
            "linear_fwd": lambda: backend.linear_forward(x_lin, w_lin, None),
            "attn_scores": lambda: backend.attn_scores(q, q),
            "batchnorm_fwd_bwd": batchnorm,
        }

    timings = {}
    numpy_ops = ops_for(nn.get_backend("numpy"))
    fused_ops = ops_for(nn.get_backend("fused"))
    for name in numpy_ops:
        numpy_ms = _time_op(numpy_ops[name]) * 1e3
        fused_ms = _time_op(fused_ops[name]) * 1e3
        timings[name] = {
            "numpy_ms": numpy_ms,
            "fused_ms": fused_ms,
            "speedup": numpy_ms / fused_ms,
        }
    return timings


def test_bench_fused_backend_gate(benchmark):
    """FusedBackend must be >= 1.3x NumpyBackend on a ResNet50-mini BP
    batch (forward + loss + full backward) — the blocking CI gate of the
    backend refactor.  Both sides are measured in this process, so the
    ratio is stable on noisy runners."""
    loss_fn = CrossEntropyLoss()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, 16)
    models = {
        name: build_mini("ResNet50", 10, rng=np.random.default_rng(1))
        for name in ("numpy", "fused")
    }

    def bp_step(name):
        model = models[name]
        with nn.use_backend(name):
            outputs = model(x)
            _, grad = loss_fn(outputs, y)
            model.zero_grad()
            model.backward(grad)

    for name in models:  # warm both: BLAS planning, workspace pool fill
        bp_step(name)
        bp_step(name)

    medians = benchmark.pedantic(
        interleaved_medians,
        args=({name: timed(bp_step, name) for name in models}, 25),
        rounds=1,
        iterations=1,
    )
    numpy_s, fused_s = medians["numpy"], medians["fused"]

    speedup = numpy_s / fused_s
    ops = _op_microbench()
    benchmark.extra_info["numpy_ms"] = numpy_s * 1e3
    benchmark.extra_info["fused_ms"] = fused_s * 1e3
    benchmark.extra_info["speedup"] = speedup
    record(
        "BENCH_engine.json",
        "fused_gate",
        {
            "model": "ResNet50-mini",
            "batch": 16,
            "numpy_step_ms": numpy_s * 1e3,
            "fused_step_ms": fused_s * 1e3,
            "speedup": speedup,
            "gate": MIN_FUSED_SPEEDUP,
            "ops": ops,
        },
    )
    print(
        f"\nResNet50-mini BP batch: numpy {numpy_s * 1e3:.2f} ms, "
        f"fused {fused_s * 1e3:.2f} ms ({speedup:.2f}x)"
    )
    assert speedup >= MIN_FUSED_SPEEDUP
