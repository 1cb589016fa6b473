"""Checkpoint, stop early, resume: the training callbacks end to end.

Fits a VGG13-mini with ADA-GP and three callbacks handed to the factory:

* ``Checkpointing`` writes the full engine state — model, optimizers,
  predictor and its per-layer scales, schedule, callback state and
  History — after every epoch, one file per epoch;
* ``EarlyStopping`` ends the fit once validation loss has not improved
  for ``PATIENCE`` epochs;
* ``Report``, a ``Callback`` subclass, prints one line per epoch.

The engine trains straight through (two ``fit`` calls, ``SPLIT`` epochs
and then the rest, are one run).  A fresh engine, built the same way in
what could be another process, then loads the checkpoint written after
``SPLIT`` epochs and fits the rest: every History list, validation
included, matches the straight run exactly, and early stopping fires on
the same epoch because its patience counter travels in the checkpoint.

Run:  python examples/checkpoint_early_stop.py        (about 3 s)
"""

import pathlib
import tempfile
from dataclasses import asdict

import numpy as np

from repro.core import (
    Callback,
    Checkpointing,
    EarlyStopping,
    HeuristicSchedule,
    adagp_engine,
)
from repro.data import synthetic_images
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy

EPOCHS, SPLIT, PATIENCE = 12, 6, 2
SPLIT_DATA = synthetic_images(10, 128, 64, image_size=16, seed=0)


class Report(Callback):
    """Print each epoch's validation loss and accuracy."""

    def __init__(self, label: str) -> None:
        self.label = label

    def on_epoch_end(self, engine, epoch, logs):
        print(
            f"  [{self.label}] epoch {epoch}: val_loss {logs['val_loss']:.4f} "
            f"val_acc {logs['val_metric']:5.1f} %"
        )


def build(checkpoint_pattern: pathlib.Path, label: str):
    """The engine and its callbacks; every run builds the same one."""
    stopper = EarlyStopping(monitor="val_loss", patience=PATIENCE)
    engine = adagp_engine(
        build_mini("VGG13", 10, rng=np.random.default_rng(1)),
        CrossEntropyLoss(),
        lr=0.05,
        predictor_lr=1e-2,
        metric_fn=accuracy,
        schedule=HeuristicSchedule(warmup_epochs=2, ladder=((EPOCHS, (2, 1)),)),
        # The checkpoint saves after every other callback's epoch end,
        # so it captures the stopper's verdict on the epoch it closes.
        callbacks=[
            Checkpointing(str(checkpoint_pattern)),
            stopper,
            Report(label),
        ],
    )
    return engine, stopper


def fit(engine, epochs: int):
    """Fit ``epochs`` more epochs, replaying the data order from where
    the engine stands (a resumed engine skips the epochs it has seen)."""
    train = SPLIT_DATA.train.epochs(16, seed=2)
    for _ in range(engine.current_epoch):
        train()
    return engine.fit(train, SPLIT_DATA.val.epochs(64), epochs)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pattern = pathlib.Path(tmp) / "epoch{epoch}.ckpt"
        print(f"== Straight run: up to {EPOCHS} epochs ==")
        straight, stopper = build(pattern, "straight")
        fit(straight, SPLIT)
        expected = fit(straight, EPOCHS - SPLIT)
        stopped = stopper.stopped_epoch
        print(
            f"  stopped early after epoch {stopped}"
            if stopped is not None
            else "  ran every epoch"
        )

        path = str(pattern).format(epoch=SPLIT - 1)
        print(f"== Resumed run: a fresh engine loads epoch{SPLIT - 1}.ckpt ==")
        resumed, resumed_stopper = build(pattern, "resumed")
        resumed.load_checkpoint(path)
        history = fit(resumed, EPOCHS - resumed.current_epoch)

    same = asdict(history) == asdict(expected)
    print(f"== Resumed History equals the straight run's: {same} ==")
    if not same or resumed_stopper.stopped_epoch != stopped:
        raise SystemExit("resume diverged from the straight run")


if __name__ == "__main__":
    main()
