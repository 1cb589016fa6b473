"""Quickstart: train one model with backprop vs ADA-GP and compare.

This is the smallest end-to-end tour of the library:

1. build a synthetic CIFAR10-like dataset,
2. train a VGG13-mini twice through the unified ``TrainingEngine`` —
   plain backprop (the paper's baseline) and ADA-GP (warm-up, then
   alternating Phase BP / Phase GP), with a ``ThroughputTimer`` callback
   measuring software batches/sec per phase,
3. report the accuracy comparison (paper Table 1's claim) plus how many
   backward passes ADA-GP skipped, and
4. estimate the wall-clock effect on the paper's 180-PE accelerator.

Pass ``--backend fused`` to run everything on the fused BLAS compute
backend (DESIGN.md §7) instead of the reference NumPy ops — same
numbers within float32 tolerance, measurably faster batches.  Pass
``--backend native`` for the compiled C kernels where the extension
builds (falls back to ``fused`` with a warning otherwise).

Run:  python examples/quickstart.py [--backend numpy|fused|native]
"""

import argparse

import numpy as np

from repro import nn
from repro.accel import AcceleratorModel, AdaGPDesign
from repro.core import (
    HeuristicSchedule,
    Phase,
    ThroughputTimer,
    adagp_engine,
    bp_engine,
)
from repro.data import preset_split
from repro.models import build_mini, spec_for
from repro.nn.losses import CrossEntropyLoss, accuracy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=nn.list_backends(),
        default="numpy",
        help="compute backend for every engine in this script",
    )
    args = parser.parse_args()
    backend = args.backend
    if backend == "native" and not nn.native_available():
        print(
            "warning: native extension unavailable on this machine "
            "(no C compiler or build failed); falling back to 'fused'"
        )
        backend = "fused"
    nn.use_backend(backend)
    print(f"(compute backend: {nn.current_backend().name})")

    split = preset_split("Cifar10", num_train=256, num_val=128, seed=0)
    epochs = 20

    print("== Training VGG13-mini with plain backprop (baseline) ==")
    bp_model = build_mini("VGG13", 10, rng=np.random.default_rng(1))
    bp_history = bp_engine(
        bp_model, CrossEntropyLoss(), lr=0.02, metric_fn=accuracy
    ).fit(
        split.train.epochs(32, 2),
        split.val.epochs(64),
        epochs=epochs,
    )
    print(f"BP best accuracy: {bp_history.best_metric:.1f}%")

    print("\n== Training the same model with ADA-GP ==")
    # Compressed version of the paper's schedule (§3.5): warm-up, then a
    # 4:1 -> 3:1 -> 2:1 -> 1:1 GP:BP ratio ladder.
    schedule = HeuristicSchedule(
        warmup_epochs=6, ladder=((3, (4, 1)), (3, (3, 1)), (3, (2, 1)))
    )
    timer = ThroughputTimer()
    ada_model = build_mini("VGG13", 10, rng=np.random.default_rng(1))
    ada_history = adagp_engine(
        ada_model, CrossEntropyLoss(), lr=0.02, metric_fn=accuracy,
        schedule=schedule, callbacks=(timer,),
    ).fit(
        split.train.epochs(32, 2),
        split.val.epochs(64),
        epochs=epochs,
    )
    skipped = sum(ada_history.gp_batches)
    total = skipped + sum(ada_history.bp_batches)
    print(f"ADA-GP best accuracy: {ada_history.best_metric:.1f}%")
    print(
        f"Backward passes skipped: {skipped}/{total} batches "
        f"({ada_history.gp_share:.0%})"
    )
    gp_rate = timer.batches_per_second(Phase.GP)
    bp_rate = timer.batches_per_second(Phase.BP)
    print(
        f"Measured throughput: {gp_rate:.1f} GP vs {bp_rate:.1f} BP batches/s "
        f"({gp_rate / bp_rate:.2f}x in NumPy, no accelerator)"
    )

    print("\n== What that buys on the paper's accelerator ==")
    spec = spec_for("VGG13", "Cifar10")
    accelerator = AcceleratorModel()
    for design in AdaGPDesign:
        speedup = accelerator.speedup(
            spec, design, HeuristicSchedule(), epochs=90, batches_per_epoch=50
        )
        print(f"{design.value:18s} training speedup over baseline: {speedup:.2f}x")


if __name__ == "__main__":
    main()
