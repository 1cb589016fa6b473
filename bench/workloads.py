"""The four benchmark workloads: what each arm trains, on what data.

Every workload is a (subject, baseline) pair of engines built from the
same seed.  ``--seed`` drives data generation (``seed``), model init
(``seed + 1``) and batch order (``seed + 2``); the engines receive only
the generated arrays.  All subjects use ``HeuristicSchedule`` so the
phase mix is a function of the schedule and not of numerics.

``band`` is fixed here, measured once when the benchmark was defined
(see README.md, "How the target and the loss band were fixed"): the
interval the subject's final-epoch training loss must fall in on every
seed.  The loss target of ``time_to_target_s`` is not a constant: it is
derived from each run's own fits (``run.loss_target``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro import nn
from repro.core import HeuristicSchedule, adagp_engine, bp_engine
from repro.data import synthetic_images, synthetic_translation
from repro.data.translation import PAD_ID
from repro.dist import ddp_engine
from repro.models import Seq2SeqTransformer, build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy

RUNNING_MEAN_BATCHES = 8
EPOCHS = 6


def _schedule() -> HeuristicSchedule:
    """Two warm-up epochs, then 2 GP : 1 BP for the rest of the run.  A
    fresh object per engine: the traced run wraps its ``phase_for``."""
    return HeuristicSchedule(warmup_epochs=2, ladder=((EPOCHS - 2, (2, 1)),))


@dataclass
class Task:
    """Generated inputs of one run: the two batch factories the fit
    loop calls once per epoch, and the batch counts they yield."""

    train_batches: Callable[[], Iterable]
    val_batches: Callable[[], Iterable]
    train_per_epoch: int
    val_per_epoch: int


@dataclass(frozen=True)
class Workload:
    name: str
    band: tuple[float, float]
    make_task: Callable[[int], Task]
    build: Callable[[str, int], object]  # (arm, seed) -> engine
    processes: int = 1
    needs_native: bool = False
    baseline_scheduled: bool = False  # the baseline arm is ADA-GP too (ddp2_vgg13)

    def expected_counts(self, arm: str, train_per_epoch: int) -> tuple[list, list]:
        """Per-epoch (true-gradient, GP) batch counts the schedule
        implies; an arm without a schedule backpropagates every batch."""
        schedule = _schedule()
        scheduled = arm == "subject" or self.baseline_scheduled
        gp = [
            sum(
                scheduled and schedule.phase_for(epoch, index).value == "gp"
                for index in range(train_per_epoch)
            )
            for epoch in range(EPOCHS)
        ]
        return [train_per_epoch - count for count in gp], gp


# ----------------------------------------------------------------------
# Image classification (VGG13-mini / ResNet50-mini), synthetic 3x16x16.
# ----------------------------------------------------------------------
IMAGE_SIZE = 16
IMAGE_TRAIN, IMAGE_VAL = 256, 64
IMAGE_BATCH, IMAGE_VAL_BATCH = 32, 64
IMAGE_LR = 0.02
# The library default (1e-4) suits the paper's long runs; in 16 warm-up
# batches it leaves the predictor untrained and GP batches undo the fit.
IMAGE_PREDICTOR_LR = 1e-2


def _image_task(seed: int) -> Task:
    split = synthetic_images(
        10, IMAGE_TRAIN, IMAGE_VAL, image_size=IMAGE_SIZE, seed=seed
    )
    return Task(
        train_batches=lambda: split.train.batches(
            IMAGE_BATCH, rng=np.random.default_rng(seed + 2)
        ),
        val_batches=lambda: split.val.batches(IMAGE_VAL_BATCH, shuffle=False),
        train_per_epoch=split.train.num_batches(IMAGE_BATCH),
        val_per_epoch=split.val.num_batches(IMAGE_VAL_BATCH),
    )


def _image_engine(model_name: str, backend: str, arm: str, seed: int, **adagp_kwargs):
    """``arm``: ``bp`` plain backprop, ``adagp`` serial ADA-GP, ``ddp``
    two-rank data-parallel ADA-GP.  All three use SGD(lr, momentum 0.9)
    — passed as the scalar ``lr`` because ddp ranks build their own."""
    model = build_mini(model_name, 10, rng=np.random.default_rng(seed + 1))
    common = dict(lr=IMAGE_LR, metric_fn=accuracy, backend=backend)
    if arm == "bp":
        return bp_engine(model, CrossEntropyLoss(), **common)
    if arm == "adagp":
        return adagp_engine(
            model,
            CrossEntropyLoss(),
            schedule=_schedule(),
            predictor_lr=IMAGE_PREDICTOR_LR,
            **common,
            **adagp_kwargs,
        )
    return ddp_engine(
        model,
        CrossEntropyLoss(),
        workers=2,
        transport="process",
        codec="adacomp",
        schedule=_schedule(),
        predictor_lr=IMAGE_PREDICTOR_LR,
        **common,
    )


def _vgg13_native(arm: str, seed: int):
    return _image_engine("VGG13", "native", "bp" if arm == "baseline" else "adagp", seed)


def _resnet50_batched(arm: str, seed: int):
    if arm == "baseline":
        return _image_engine("ResNet50", "fused", "bp", seed)
    return _image_engine("ResNet50", "fused", "adagp", seed, batched_gp=True)


def _ddp2_vgg13(arm: str, seed: int):
    return _image_engine("VGG13", "fused", "adagp" if arm == "baseline" else "ddp", seed)


# ----------------------------------------------------------------------
# Seq2seq Transformer on the synthetic reverse+shift translation corpus.
# ----------------------------------------------------------------------
SEQ_TRAIN, SEQ_VAL = 192, 64
SEQ_BATCH, SEQ_VAL_BATCH = 32, 64
SEQ_LR = 2e-3


def _seq_batches(dataset, batch_size: int, seed: int):
    for src, tgt in dataset.batches(batch_size, shuffle=True, seed=seed):
        yield (src, tgt[:, :-1]), tgt[:, 1:]


def _token_accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    mask = targets != PAD_ID
    return float((logits.argmax(axis=-1)[mask] == targets[mask]).mean() * 100.0)


def _seq_task(seed: int) -> Task:
    train = synthetic_translation(SEQ_TRAIN, content_vocab=12, max_len=6, seed=seed)
    val = synthetic_translation(SEQ_VAL, content_vocab=12, max_len=6, seed=seed + 100)
    return Task(
        train_batches=lambda: _seq_batches(train, SEQ_BATCH, seed + 2),
        val_batches=lambda: _seq_batches(val, SEQ_VAL_BATCH, seed + 3),
        train_per_epoch=-(-SEQ_TRAIN // SEQ_BATCH),
        val_per_epoch=-(-SEQ_VAL // SEQ_VAL_BATCH),
    )


def _transformer_predictor(arm: str, seed: int):
    vocab = 3 + 12  # specials + content_vocab, as synthetic_translation builds it
    model = Seq2SeqTransformer(
        vocab, vocab, d_model=32, num_heads=2, d_ff=64,
        rng=np.random.default_rng(seed + 1),
    )
    common = dict(
        optimizer=nn.Adam(model.parameters(), lr=SEQ_LR),
        metric_fn=_token_accuracy,
        plateau_scheduler=False,
        backend="fused",
    )
    loss = CrossEntropyLoss(ignore_index=PAD_ID)
    if arm == "baseline":
        return bp_engine(model, loss, **common)
    # Predicted gradients go through SGD, mirroring the accelerator's
    # plain-MAC update unit (Adam would normalise them to full steps).
    return adagp_engine(
        model,
        loss,
        gp_optimizer=nn.SGD(model.parameters(), lr=SEQ_LR, momentum=0.9),
        schedule=_schedule(),
        **common,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="vgg13_native",
            band=(0.08, 2.32),
            make_task=_image_task,
            build=_vgg13_native,
            needs_native=True,
        ),
        Workload(
            name="resnet50_batched",
            band=(0.89, 2.19),
            make_task=_image_task,
            build=_resnet50_batched,
        ),
        Workload(
            name="transformer_predictor",
            band=(1.96, 2.95),
            make_task=_seq_task,
            build=_transformer_predictor,
        ),
        Workload(
            name="ddp2_vgg13",
            band=(0.49, 2.61),
            make_task=_image_task,
            build=_ddp2_vgg13,
            processes=2,
            baseline_scheduled=True,
        ),
    )
}
