"""Bench: data-parallel training and AdaComp gradient compression.

Three records into ``BENCH_dist.json``:

1. **DDP scaling** — the same ADA-GP fit run serially and as
   ``ddp_engine(workers=2, transport="process")``.  Gate (blocking in
   CI where runners have >= 2 cores): the 2-worker run must be >=
   ``MIN_DDP_SPEEDUP``x serial.  On single-core machines process
   parallelism cannot beat the physical core count, so the ratio is
   recorded but the gate is skipped — the same
   recorded-but-not-enforced pattern as ``bench_tune``.
2. **AdaComp compression** — always enforced, core-count independent:
   the measured steady-state compression ratio of
   :class:`~repro.dist.AdaCompCodec` on *real* ResNet50-mini BP
   gradients must clear ``MIN_ADACOMP_RATIO``x.  "Steady state" is the
   late window of a training run: AdaComp's residual-driven selection
   starts dense (first encode sends ~15% of elements — ``H == G`` makes
   ``|H|+|G| >= max|H|`` easy to satisfy) and thins out as residuals
   adapt, so the honest number — and the one the paper quotes — is the
   per-step ratio after warm-up, not the cumulative average that blends
   the cold start in.
3. **Recovery overhead** — the same fit run clean and under an injected
   kill-per-epoch chaos schedule (:class:`~repro.dist.ChaosTransport`
   over the local transport, so the number is 1-core-honest).  The
   bitwise faulted ≡ unfaulted assertion is *always* enforced — it is
   the correctness contract, not a perf property.  The wall-clock
   overhead gate follows the recorded-but-not-enforced pattern below 2
   cores, where timer noise on a saturated box dominates the signal.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_dist.py -q
"""

import itertools
import os
import time

import numpy as np
import pytest

from _bench_io import record
from repro.core import bp_engine
from repro.data import synthetic_images
from repro.dist import (
    AdaCompCodec,
    ChaosTransport,
    Fault,
    ReliableTransport,
    ddp_engine,
    dp_strategy,
    shutdown,
)
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy

MIN_DDP_SPEEDUP = 1.2
MIN_ADACOMP_RATIO = 40.0
WORKERS = 2

#: Ceiling on the chaos run's relative wall-clock cost: a kill-per-epoch
#: schedule (3 rebuilds over a 3-epoch fit) may at most double the fit.
MAX_RECOVERY_OVERHEAD = 1.0

#: AdaComp bin size for the compression gate — the compress-hard end of
#: the paper's range.  The ratio scales ~T/k for k sends per bin; on
#: ResNet50-mini BP gradients the measured steady-state here is ~44x
#: (T=1024 gives ~42x, T=4096 ~45x — the sweep lives in EXPERIMENTS.md).
ADACOMP_BIN = 2048
ADACOMP_STEPS = 60
ADACOMP_LATE_WINDOW = 10


def _split(seed=0):
    return synthetic_images(10, 128, 32, image_size=16, seed=seed)


def test_bench_ddp_scaling_gate(benchmark):
    """2-worker process-transport ADA-GP fit vs the serial fit."""
    from repro.core import HeuristicSchedule, adagp_engine

    split = _split()

    def model():
        return build_mini("VGG13", 10, rng=np.random.default_rng(1))

    def schedule():
        return HeuristicSchedule(warmup_epochs=1, ladder=((2, (1, 1)),))

    times: dict[str, float] = {}

    def measure():
        serial = adagp_engine(
            model(), CrossEntropyLoss(), lr=0.05, metric_fn=accuracy,
            schedule=schedule(),
        )
        start = time.perf_counter()
        serial.fit(split.train.epochs(16, 2), split.val.epochs(16), 3)
        times["serial"] = time.perf_counter() - start

        ddp = ddp_engine(
            model(), CrossEntropyLoss(), workers=WORKERS,
            transport="process", lr=0.05, metric_fn=accuracy,
            schedule=schedule(),
        )
        start = time.perf_counter()
        ddp.fit(split.train.epochs(16, 2), split.val.epochs(16), 3)
        times["ddp"] = time.perf_counter() - start
        shutdown(ddp)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = times["serial"] / times["ddp"]
    cores = os.cpu_count() or 1
    benchmark.extra_info["serial_s"] = times["serial"]
    benchmark.extra_info["ddp_s"] = times["ddp"]
    benchmark.extra_info["speedup"] = speedup
    record(
        "BENCH_dist.json",
        "ddp_scaling",
        {
            "model": "VGG13-mini",
            "epochs": 3,
            "transport": "process",
            "serial_s": times["serial"],
            "ddp_s": times["ddp"],
            "speedup": speedup,
            "gate": MIN_DDP_SPEEDUP,
            "gate_enforced": cores >= WORKERS,
        },
        workers=WORKERS,
    )
    print(
        f"\nADA-GP fit: serial {times['serial']:.2f} s, {WORKERS}-worker "
        f"{times['ddp']:.2f} s ({speedup:.2f}x, {cores} cores)"
    )
    if cores < WORKERS:
        pytest.skip(
            f"only {cores} core(s): {WORKERS}-process data parallelism "
            f"cannot reach the {MIN_DDP_SPEEDUP}x gate (recorded, not "
            "enforced)"
        )
    assert speedup >= MIN_DDP_SPEEDUP


def test_bench_adacomp_compression_gate(benchmark):
    """Steady-state AdaComp ratio on real ResNet50-mini BP gradients."""
    model = build_mini("ResNet50", 10, rng=np.random.default_rng(1))
    engine = bp_engine(model, CrossEntropyLoss(), lr=0.05, backend="fused")
    split = synthetic_images(10, 64, 16, image_size=32, seed=0)
    codec = AdaCompCodec(bin_size=ADACOMP_BIN)

    step_ratios: list[float] = []

    def measure():
        next_epoch = split.train.epochs(16, 3)
        steps = (batch for _ in itertools.count() for batch in next_epoch())
        for inputs, targets in itertools.islice(steps, ADACOMP_STEPS):
            engine.train_batch(inputs, targets)
            wire = dense = 0
            for key, param in enumerate(engine.optimizer.parameters):
                if param.grad is None:
                    continue
                enc = codec.encode(key, param.grad)
                wire += enc.wire_bytes
                dense += enc.dense_bytes
            step_ratios.append(dense / wire)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    late = step_ratios[-ADACOMP_LATE_WINDOW:]
    steady_ratio = float(np.mean(late))
    benchmark.extra_info["steady_ratio"] = steady_ratio
    benchmark.extra_info["first_step_ratio"] = step_ratios[0]
    record(
        "BENCH_dist.json",
        "adacomp_compression",
        {
            "model": "ResNet50-mini",
            "batch": 16,
            "bin_size": ADACOMP_BIN,
            "steps": ADACOMP_STEPS,
            "late_window": ADACOMP_LATE_WINDOW,
            "first_step_ratio": step_ratios[0],
            "final_step_ratio": step_ratios[-1],
            "steady_ratio": steady_ratio,
            "gate": MIN_ADACOMP_RATIO,
            "gate_enforced": True,
        },
    )
    print(
        f"\nAdaComp T={ADACOMP_BIN} on ResNet50-mini BP grads: "
        f"step 0 {step_ratios[0]:.1f}x -> steady "
        f"{steady_ratio:.1f}x (last {ADACOMP_LATE_WINDOW} of "
        f"{ADACOMP_STEPS} steps)"
    )
    assert steady_ratio >= MIN_ADACOMP_RATIO


def test_bench_recovery_overhead_gate(benchmark):
    """Kill-per-epoch chaos fit vs the clean fit: bitwise identical
    always; wall-clock overhead gated where timing is meaningful."""
    import pickle

    from repro.core import HeuristicSchedule

    split = _split()

    def model():
        return build_mini("VGG13", 10, rng=np.random.default_rng(1))

    def run(transport):
        engine = ddp_engine(
            model(), CrossEntropyLoss(), workers=WORKERS,
            transport=ReliableTransport(transport, retry_backoff=0.0),
            lr=0.05, metric_fn=accuracy,
            schedule=HeuristicSchedule(warmup_epochs=1, ladder=((2, (1, 1)),)),
        )
        start = time.perf_counter()
        history = engine.fit(
            split.train.epochs(16, 2), split.val.epochs(16), 3
        )
        elapsed = time.perf_counter() - start
        state = pickle.dumps(engine.state_dict())
        totals = dp_strategy(engine).comm.totals()
        shutdown(engine)
        return history, state, elapsed, totals

    results: dict[str, tuple] = {}

    def measure():
        results["clean"] = run("local")
        results["chaos"] = run(
            ChaosTransport(
                "local",
                faults=[Fault("kill", rank=1, op="compute", nth=n) for n in (0, 6, 12)],
            )
        )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    h_clean, s_clean, clean_s, _ = results["clean"]
    h_chaos, s_chaos, chaos_s, totals = results["chaos"]
    overhead = chaos_s / clean_s - 1.0
    cores = os.cpu_count() or 1
    benchmark.extra_info["clean_s"] = clean_s
    benchmark.extra_info["chaos_s"] = chaos_s
    benchmark.extra_info["overhead"] = overhead
    bitwise = h_clean == h_chaos and s_clean == s_chaos
    record(
        "BENCH_dist.json",
        "recovery_overhead",
        {
            "model": "VGG13-mini",
            "epochs": 3,
            "transport": "chaos(local)",
            "kills_injected": 3,
            "clean_s": clean_s,
            "chaos_s": chaos_s,
            "overhead": overhead,
            "rebuilds": totals["rebuilds"],
            "recovery_s": totals["recovery_s"],
            "recovery_bytes": totals["recovery_bytes"],
            "bitwise_identical": bitwise,
            "gate": MAX_RECOVERY_OVERHEAD,
            "gate_enforced": cores >= WORKERS,
        },
        workers=WORKERS,
    )
    print(
        f"\nRecovery: clean {clean_s:.2f} s, 3-kill chaos {chaos_s:.2f} s "
        f"(+{overhead * 100:.0f}%, {totals['rebuilds']:.0f} rebuilds, "
        f"{totals['recovery_bytes'] / 1e6:.1f} MB re-sync)"
    )
    # The correctness half of the record is unconditional: recovery that
    # changes a bit is a wrong answer delivered slowly.
    assert bitwise
    assert totals["rebuilds"] >= 3
    if cores < WORKERS:
        pytest.skip(
            f"only {cores} core(s): wall-clock overhead recorded, gate "
            "not enforced"
        )
    assert overhead <= MAX_RECOVERY_OVERHEAD
