"""BP baseline trainer and the ADA-GP trainer (paper §3) — engine shims.

Historically this module carried three hand-rolled copies of the
train/eval/fit loop; the loop now lives once in
:class:`~repro.core.engine.TrainingEngine` with per-batch behavior
factored into :mod:`~repro.core.engine.strategies`.  ``BPTrainer`` and
``AdaGPTrainer`` remain as thin compatibility shims with their original
constructor signatures and ``fit()`` semantics, delegating everything to
an engine built by :func:`~repro.core.engine.bp_engine` /
:func:`~repro.core.engine.adagp_engine`.  New code should use the engine
API directly (callbacks, checkpointing and early stopping come with it).

The ADA-GP phases (unchanged semantics):

* **Warm Up / Phase BP** — standard backprop updates the model; the
  predictor additionally trains on every predictable layer's true
  gradients (§3.3), through the batched fast path by default.
* **Phase GP** — backprop is skipped; a forward hook updates each
  predictable layer with predicted gradients the moment that layer's
  forward pass completes (§3.4).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..nn.module import Module, PredictableMixin
from ..nn.optim import Optimizer
from .engine import TrainingEngine, adagp_engine, bp_engine
from .engine.engine import Batch, BatchesFn, LossFn, MetricFn
from .history import History
from .predictor import GradientPredictor
from .schedule import HeuristicSchedule, Phase

__all__ = ["BPTrainer", "AdaGPTrainer", "Batch", "LossFn", "MetricFn", "BatchesFn"]


class BPTrainer:
    """Plain backpropagation baseline (the paper's comparison point)."""

    def __init__(
        self,
        model: Module,
        loss_fn: LossFn,
        optimizer: Optional[Optimizer] = None,
        lr: float = 1e-3,
        metric_fn: Optional[MetricFn] = None,
        plateau_scheduler: bool = True,
    ) -> None:
        self.engine: TrainingEngine = bp_engine(
            model,
            loss_fn,
            optimizer=optimizer,
            lr=lr,
            metric_fn=metric_fn,
            plateau_scheduler=plateau_scheduler,
        )

    # -- engine attribute passthroughs ---------------------------------
    @property
    def model(self) -> Module:
        return self.engine.model

    @property
    def loss_fn(self) -> LossFn:
        return self.engine.loss_fn

    @property
    def optimizer(self) -> Optimizer:
        return self.engine.optimizer

    @property
    def metric_fn(self) -> Optional[MetricFn]:
        return self.engine.metric_fn

    @property
    def scheduler(self):
        return self.engine.lr_scheduler

    @property
    def history(self) -> History:
        return self.engine.history

    # ------------------------------------------------------------------
    def train_batch(self, inputs, targets) -> float:
        """One forward + backward + optimizer step; returns the loss."""
        return self.engine.train_batch(inputs, targets).loss

    def train_epoch(self, batches: Iterable[Batch]) -> float:
        """Train over an iterable of batches; returns the mean loss."""
        return self.engine.train_epoch(batches).loss

    def evaluate(self, batches: Iterable[Batch]) -> tuple[float, float]:
        """Mean (loss, metric) over validation batches."""
        return self.engine.evaluate(batches)

    def fit(
        self, train_batches: BatchesFn, val_batches: BatchesFn, epochs: int
    ) -> History:
        """Run the full train/validate loop and record History."""
        return self.engine.fit(train_batches, val_batches, epochs)


class AdaGPTrainer:
    """Adaptive gradient-prediction trainer (the paper's algorithm)."""

    def __init__(
        self,
        model: Module,
        loss_fn: LossFn,
        optimizer: Optional[Optimizer] = None,
        predictor: Optional[GradientPredictor] = None,
        schedule: Optional[HeuristicSchedule] = None,
        lr: float = 1e-3,
        predictor_lr: float = 1e-4,
        metric_fn: Optional[MetricFn] = None,
        plateau_scheduler: bool = True,
        predictor_milestones: tuple[int, ...] = (20, 40),
        gp_optimizer: Optional[Optimizer] = None,
        batched_predictor: bool = True,
    ) -> None:
        self.engine: TrainingEngine = adagp_engine(
            model,
            loss_fn,
            optimizer=optimizer,
            predictor=predictor,
            schedule=schedule,
            lr=lr,
            predictor_lr=predictor_lr,
            metric_fn=metric_fn,
            plateau_scheduler=plateau_scheduler,
            predictor_milestones=predictor_milestones,
            gp_optimizer=gp_optimizer,
            batched_predictor=batched_predictor,
        )

    # -- engine attribute passthroughs ---------------------------------
    @property
    def model(self) -> Module:
        return self.engine.model

    @property
    def loss_fn(self) -> LossFn:
        return self.engine.loss_fn

    @property
    def optimizer(self) -> Optimizer:
        return self.engine.optimizer

    @property
    def gp_optimizer(self) -> Optimizer:
        return self.engine.gp_optimizer

    @property
    def predictor(self) -> GradientPredictor:
        return self.engine.predictor

    @property
    def schedule(self):
        return self.engine.schedule

    @property
    def metric_fn(self) -> Optional[MetricFn]:
        return self.engine.metric_fn

    @property
    def scheduler(self):
        return self.engine.lr_scheduler

    @property
    def predictor_scheduler(self):
        return self.engine.predictor_scheduler

    @property
    def layers(self) -> list[PredictableMixin]:
        return self.engine.layers

    @property
    def history(self) -> History:
        return self.engine.history

    @property
    def current_epoch(self) -> int:
        return self.engine.current_epoch

    # ------------------------------------------------------------------
    # Phase steps.
    # ------------------------------------------------------------------
    def train_batch_bp(
        self, inputs, targets, stats: Optional[dict] = None
    ) -> float:
        """Warm Up / Phase BP batch: backprop + predictor training."""
        result = self.engine.train_batch(inputs, targets, Phase.BP)
        if stats is not None and result.predictor_mse is not None:
            for index, value in result.predictor_mse.items():
                stats["mse"][index].append(value)
            for index, value in result.predictor_mape.items():
                stats["mape"][index].append(value)
        return result.loss

    def train_batch_gp(self, inputs, targets) -> float:
        """Phase GP batch: forward-only with per-layer predicted updates."""
        return self.engine.train_batch(inputs, targets, Phase.GP).loss

    # ------------------------------------------------------------------
    def train_epoch(
        self, batches: Iterable[Batch], epoch: Optional[int] = None
    ) -> dict:
        """Train one epoch under the phase schedule; returns stats."""
        return self.engine.train_epoch(batches, epoch).legacy_dict()

    def evaluate(self, batches: Iterable[Batch]) -> tuple[float, float]:
        """Mean (loss, metric) over validation batches, hooks disabled."""
        return self.engine.evaluate(batches)

    def fit(
        self, train_batches: BatchesFn, val_batches: BatchesFn, epochs: int
    ) -> History:
        """Run warm-up / Phase BP / Phase GP training end-to-end.

        Each epoch is scheduled per batch by ``self.schedule``; validation
        runs after every epoch and both LR schedulers step.  Per-layer
        predictor errors (Fig 15's series) accumulate in ``self.history``.
        """
        return self.engine.fit(train_batches, val_batches, epochs)
