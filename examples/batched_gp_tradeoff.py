"""Hooked vs batched Phase-GP: the accuracy/throughput trade-off.

§3.4 applies each layer's predicted update the moment its forward pass
completes — that per-layer immediacy is what the hardware's dedicated
predictor array buys.  In software each per-layer predictor invocation
pays its own dispatch, so the engine also offers ``batched_gp``: one
stacked ``predict_many`` call plus one grouped optimizer apply *after*
the no-grad forward (the ROADMAP's "Batched GP phase").

For a single-pass feed-forward chain the two are mathematically
equivalent within a batch (no later layer re-reads an updated weight),
so accuracy should track closely; since the predictor runs as two GEMMs
(DESIGN.md §4) the throughput gap is small too — this example measures
both.

Run:  python examples/batched_gp_tradeoff.py
"""

import time

import numpy as np

from repro.core import HeuristicSchedule, Phase, ThroughputTimer, adagp_engine
from repro.data import preset_split
from repro.experiments.formats import format_table
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy


def run(split, batched_gp: bool, epochs: int = 16):
    model = build_mini("ResNet50", 10, rng=np.random.default_rng(1))
    timer = ThroughputTimer()
    engine = adagp_engine(
        model,
        CrossEntropyLoss(),
        lr=0.02,
        metric_fn=accuracy,
        schedule=HeuristicSchedule(warmup_epochs=4, ladder=((4, (2, 1)),)),
        batched_gp=batched_gp,
        backend="fused",
        callbacks=(timer,),
    )
    start = time.perf_counter()
    history = engine.fit(
        split.train.epochs(32, 2),
        split.val.epochs(64),
        epochs=epochs,
    )
    elapsed = time.perf_counter() - start
    return history.best_metric, timer.batches_per_second(Phase.GP), elapsed


def main() -> None:
    split = preset_split("Cifar10", num_train=256, num_val=128, seed=0)
    rows = []
    for label, batched in (
        ("hooked (§3.4 per-layer updates)", False),
        ("batched (predict_many after fwd)", True),
    ):
        acc, gp_rate, elapsed = run(split, batched_gp=batched)
        rows.append(
            [label, acc, f"{gp_rate:.1f}", f"{elapsed:.1f} s"]
        )
    print(
        format_table(
            ["Phase-GP mode", "Best accuracy (%)", "GP batches/s", "Wall time"],
            rows,
            title="Hooked vs batched Phase-GP on ResNet50-mini / CIFAR10-like",
        )
    )


if __name__ == "__main__":
    main()
