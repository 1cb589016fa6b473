"""Data-parallel ADA-GP training with AdaComp gradient compression.

The tour of ``repro.dist`` (DESIGN.md §12):

1. build the CIFAR10-like dataset and a VGG13-mini,
2. train it as ``ddp_engine(workers=2, inner="bp")`` three ways —
   identity codec (dense gradients, the parity baseline), AdaComp at
   the paper's T=256 sweet spot, and AdaComp at a compress-hard
   T=1024 — reporting accuracy, gradient bytes actually shipped
   (measured wire accounting, not an estimate) and the compression
   ratio; pure-BP is where a gradient codec works every batch, and at
   this scale AdaComp's sparsification typically *helps* accuracy,
3. then show the phase-aware part with ``inner="adagp"``: per-epoch
   comm drops to *zero gradient bytes* on GP batches — the ADA-GP
   phase structure is itself a communication optimization, orthogonal
   to and stacking with the codec.

``--transport process`` runs real worker processes over pipes; the
default ``local`` transport is in-process (bitwise-identical results —
that equivalence is an enforced test in ``tests/dist/``) and friendlier
to small machines.

Run:  python examples/ddp_training.py [--transport local|process]
      [--workers 2] [--epochs 12]
"""

import argparse

import numpy as np

from repro.core import HeuristicSchedule
from repro.data import preset_split
from repro.dist import AdaCompCodec, ddp_engine, dp_strategy, shutdown
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy


def train_once(split, codec, label, args, inner="bp"):
    model = build_mini("VGG13", 10, rng=np.random.default_rng(1))
    extra = (
        {"schedule": HeuristicSchedule(warmup_epochs=4, ladder=((4, (3, 1)),))}
        if inner == "adagp"
        else {}
    )
    engine = ddp_engine(
        model,
        CrossEntropyLoss(),
        workers=args.workers,
        codec=codec,
        transport=args.transport,
        inner=inner,
        lr=0.02,
        metric_fn=accuracy,
        **extra,
    )
    history = engine.fit(
        split.train.epochs(32, 2),
        split.val.epochs(128),
        args.epochs,
    )
    comm = dp_strategy(engine).comm
    totals = comm.totals()
    ratio = comm.compression_ratio()
    epochs = comm.epochs
    shutdown(engine)
    print(
        f"  {label:16s} best acc {max(history.val_metric):5.1f}%   "
        f"grad bytes {totals['grad_wire_bytes'] / 1e6:8.2f} MB   "
        f"ratio {ratio:6.1f}x"
    )
    return history, epochs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--transport",
        choices=("local", "process"),
        default="local",
        help="in-process ranks (local) or real worker processes",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=12)
    args = parser.parse_args()

    split = preset_split("Cifar10", num_train=256, num_val=128, seed=0)

    print(
        f"VGG13-mini / CIFAR10-mini, {args.workers} workers "
        f"({args.transport} transport), {args.epochs} epochs\n"
        "codec comparison (pure-BP data parallel):"
    )
    train_once(split, "identity", "identity", args)
    train_once(split, AdaCompCodec(bin_size=256), "adacomp T=256", args)
    train_once(split, AdaCompCodec(bin_size=1024), "adacomp T=1024", args)

    print("\nphase-aware comm (ADA-GP, 3:1 GP:BP after warm-up; identity codec):")
    history, epochs = train_once(split, "identity", "adagp identity", args, inner="adagp")
    print("  epoch  bp-batches  gp-batches  grad-MB    sync-MB")
    for epoch in range(history.num_epochs):
        # A comm-free epoch leaves no ledger row.
        row = epochs.get(epoch, {})
        print(
            f"  {epoch:5d}  {history.bp_batches[epoch]:10d}  {history.gp_batches[epoch]:10d}"
            f"  {row.get('grad_wire_bytes', 0) / 1e6:8.3f}   {row.get('sync_bytes', 0) / 1e6:7.2f}"
        )
    print(
        "\nGP batches apply locally predicted gradients — no backprop"
        "\ngradient exists, so nothing crosses the wire; state re-syncs"
        "\nonly at BP<->GP phase boundaries (DESIGN.md §12)."
    )


if __name__ == "__main__":
    main()
