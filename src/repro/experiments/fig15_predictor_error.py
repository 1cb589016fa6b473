"""Fig 15: predictor MAPE and MSE per VGG13 layer over training epochs.

Paper: both error measures fall as training proceeds, with layer 1
noticeably worse than layers 2-10.  Reproduced on the VGG13 mini (which
keeps the full model's 10-conv-layer structure); absolute MAPE values
differ from the paper (see EXPERIMENTS.md) but the trends — errors
decreasing over epochs, layer 1 the outlier — are the claim under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import HeuristicSchedule, History, adagp_engine
from ..data import preset_split
from ..models import build_mini
from ..nn.losses import CrossEntropyLoss, accuracy
from .formats import format_series


@dataclass
class Fig15Result:
    history: History
    num_layers: int


def run_fig15(
    epochs: int = 24,
    num_train: int = 256,
    num_val: int = 128,
    batch_size: int = 32,
    lr: float = 0.02,
    predictor_lr: float = 3e-3,
    seed: int = 0,
    callbacks: tuple = (),
) -> Fig15Result:
    """Train VGG13-mini with ADA-GP, recording per-layer predictor error."""
    split = preset_split("Cifar10", num_train=num_train, num_val=num_val, seed=seed)
    model = build_mini("VGG13", 10, rng=np.random.default_rng(seed + 1))
    engine = adagp_engine(
        model,
        CrossEntropyLoss(),
        metric_fn=accuracy,
        lr=lr,
        predictor_lr=predictor_lr,
        schedule=HeuristicSchedule(
            warmup_epochs=6, ladder=((3, (4, 1)), (3, (3, 1)), (3, (2, 1)))
        ),
        callbacks=callbacks,
    )
    history = engine.fit(
        split.train.epochs(batch_size, seed + 2),
        split.val.epochs(2 * batch_size),
        epochs=epochs,
    )
    return Fig15Result(history=history, num_layers=len(engine.layers))


def format_fig15(result: Fig15Result, kind: str = "mape", max_layers: int = 10) -> str:
    layers = min(result.num_layers, max_layers)
    series = {
        f"layer {i + 1}": result.history.layer_series(i, kind)
        for i in range(layers)
    }
    xs = list(range(1, result.history.num_epochs + 1))
    label = "MAPE (%)" if kind == "mape" else "MSE"
    return format_series(
        f"Fig 15{'a' if kind == 'mape' else 'b'}: predictor {label} per layer",
        "epoch",
        series,
        xs,
    )


def main() -> None:  # pragma: no cover
    result = run_fig15()
    print(format_fig15(result, "mape"))
    print()
    print(format_fig15(result, "mse"))


if __name__ == "__main__":  # pragma: no cover
    main()
