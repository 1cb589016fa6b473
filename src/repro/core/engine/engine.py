"""The unified training engine behind every trainer in this repo.

One :class:`TrainingEngine` owns the train/eval/fit loop, LR-scheduler
stepping and :class:`~repro.core.History` recording; what happens inside
a single training batch is delegated to pluggable
:class:`~repro.core.engine.strategies.PhaseStrategy` objects selected
per batch by the phase schedule (``HeuristicSchedule`` /
``AdaptiveSchedule``).  BP, ADA-GP and pipelined ADA-GP are therefore the
*same* loop with different strategy wiring — see
:mod:`repro.core.engine.factories` — and cross-cutting loop features
(checkpoint/resume, early stopping, throughput timing) are composable
:class:`~repro.core.engine.events.Callback` objects.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Union

import numpy as np

from ... import nn
from ...nn.backend import BackendSpec, backend_scope, resolve_backend
from ...obs.trace import EVAL, phase_scope, tracer as _obs_tracer
from ...nn.module import Module, PredictableMixin
from ...nn.optim import Optimizer
from ..history import History
from ..predictor import GradientPredictor
from ..schedule import Phase
from . import checkpoint as checkpoint_io
from .events import Callback, CallbackList
from .strategies import BatchResult, PhaseStrategy

Batch = tuple  # (inputs, targets)
LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]
MetricFn = Callable[[np.ndarray, np.ndarray], float]
BatchesFn = Callable[[], Iterable[Batch]]


@dataclass
class EpochStats:
    """Aggregate outcome of one training epoch.

    ``predictor_mse``/``predictor_mape`` map predictable-layer index to
    the epoch-mean prediction error (empty when no predictor trained).
    """

    loss: float
    counts: dict[Phase, int]
    predictor_mse: dict[int, float] = field(default_factory=dict)
    predictor_mape: dict[int, float] = field(default_factory=dict)


class TrainingEngine:
    """Phase-scheduled training loop with callbacks and checkpointing.

    Parameters
    ----------
    strategies:
        Either one :class:`PhaseStrategy` used for every phase, or a
        mapping ``{Phase: strategy}`` covering each phase the schedule
        can emit.
    schedule:
        ``HeuristicSchedule``/``AdaptiveSchedule`` (anything with
        ``phase_for(epoch, batch_index)``), or ``None`` to run every
        batch as :attr:`Phase.BP` — the plain-backprop configuration.
    predictor / gp_optimizer / predictor_scheduler:
        The ADA-GP machinery; all optional.  When ``predictor`` is set
        the engine resolves the model's predictable layers and records
        per-layer predictor errors in History.
    backend:
        Compute backend (name or :class:`~repro.nn.backend.Backend`)
        every batch and evaluation runs under; ``None`` inherits the
        process-global default (``nn.use_backend``).
    """

    def __init__(
        self,
        model: Module,
        loss_fn: LossFn,
        optimizer: Optimizer,
        strategies: Union[PhaseStrategy, Mapping[Phase, PhaseStrategy]],
        schedule=None,
        metric_fn: Optional[MetricFn] = None,
        lr_scheduler=None,
        predictor: Optional[GradientPredictor] = None,
        gp_optimizer: Optional[Optimizer] = None,
        predictor_scheduler=None,
        callbacks: Iterable[Callback] = (),
        history: Optional[History] = None,
        backend: Optional[BackendSpec] = None,
    ) -> None:
        self.model = model
        self.backend = resolve_backend(backend)
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.metric_fn = metric_fn
        self.schedule = schedule
        self.lr_scheduler = lr_scheduler
        self.predictor = predictor
        self.gp_optimizer = gp_optimizer if gp_optimizer is not None else optimizer
        self.predictor_scheduler = predictor_scheduler
        self.callbacks = CallbackList(callbacks)
        self.history = history if history is not None else History()
        self.current_epoch = 0
        self.stop_requested = False
        self.layers: list[PredictableMixin] = (
            nn.predictable_layers(model) if predictor is not None else []
        )
        if isinstance(strategies, PhaseStrategy):
            strategies = {phase: strategies for phase in Phase}
        self.strategies: dict[Phase, PhaseStrategy] = dict(strategies)
        for strategy in {id(s): s for s in self.strategies.values()}.values():
            strategy.bind(self)

    # ------------------------------------------------------------------
    # Phase resolution and hooks.
    # ------------------------------------------------------------------
    def phase_for(self, epoch: int, batch_index: int) -> Phase:
        """Phase of one training batch; Phase BP when no schedule is set."""
        if self.schedule is None:
            return Phase.BP
        return self.schedule.phase_for(epoch, batch_index)

    def strategy_for(self, phase: Phase) -> PhaseStrategy:
        try:
            return self.strategies[phase]
        except KeyError:
            raise KeyError(
                f"no strategy registered for phase {phase!r}; "
                f"have {sorted(p.value for p in self.strategies)}"
            ) from None

    def clear_hooks(self) -> None:
        """Remove every forward hook from the predictable layers."""
        for layer in self.layers:
            layer.forward_hook = None

    def request_stop(self) -> None:
        """Ask the fit loop to stop after the current epoch (callbacks)."""
        self.stop_requested = True

    # ------------------------------------------------------------------
    # Train / evaluate.
    # ------------------------------------------------------------------
    def train_batch(
        self, inputs, targets, phase: Phase = Phase.BP
    ) -> BatchResult:
        """Run one training batch under ``phase``'s strategy, inside the
        engine's backend scope.  Forward caches are dropped afterwards
        so the step's largest allocations don't stay pinned between
        batches."""
        strategy = self.strategy_for(phase)
        # phase_scope (one list push/pop) lets obs attribute backend op
        # time to the scheduled phase even when tracing is off.
        with phase_scope(phase), backend_scope(self.backend):
            result = strategy.train_batch(inputs, targets, phase)
        self.model.clear_caches()
        return result

    def train_epoch(
        self, batches: Iterable[Batch], epoch: Optional[int] = None
    ) -> EpochStats:
        """Train over an iterable of batches under the phase schedule."""
        epoch = self.current_epoch if epoch is None else epoch
        losses: list[float] = []
        counts = {phase: 0 for phase in Phase}
        mse_acc: dict[int, list[float]] = defaultdict(list)
        mape_acc: dict[int, list[float]] = defaultdict(list)
        for batch_index, (inputs, targets) in enumerate(batches):
            phase = self.phase_for(epoch, batch_index)
            self.callbacks.on_batch_begin(self, epoch, batch_index, phase)
            result = self.train_batch(inputs, targets, phase)
            counts[result.phase] += 1
            losses.append(result.loss)
            if result.predictor_mse:
                for index, value in result.predictor_mse.items():
                    mse_acc[index].append(value)
            if result.predictor_mape:
                for index, value in result.predictor_mape.items():
                    mape_acc[index].append(value)
            self.callbacks.on_batch_end(self, epoch, batch_index, result)
        if not losses:
            raise ValueError("train_epoch received no batches")
        return EpochStats(
            loss=float(np.mean(losses)),
            counts=counts,
            predictor_mse={k: float(np.mean(v)) for k, v in mse_acc.items()},
            predictor_mape={k: float(np.mean(v)) for k, v in mape_acc.items()},
        )

    def evaluate(self, batches: Iterable[Batch]) -> tuple[float, float]:
        """Mean (loss, metric) over validation batches, hooks disabled.

        Runs entirely under :func:`~repro.nn.no_grad` with a value-only
        loss: evaluation can never backpropagate, so no layer retains a
        backward cache and (in eval mode) the backend's fold pipeline
        applies — conv+BN(+ReLU), BN+ReLU and linear+activation each
        run as one op.  The model is back in train mode on return, even
        when a forward raises; no batches at all is a ``ValueError``.
        """
        self.model.eval()
        self.clear_hooks()
        losses: list[float] = []
        metrics: list[float] = []
        try:
            with _obs_tracer().span("engine.evaluate", phase=EVAL), phase_scope(
                EVAL
            ), backend_scope(self.backend), nn.no_grad():
                for inputs, targets in batches:
                    outputs = self.model(inputs)
                    losses.append(nn.loss_value(self.loss_fn, outputs, targets))
                    if self.metric_fn is not None:
                        metrics.append(self.metric_fn(outputs, targets))
        finally:
            self.model.train()
        if not losses:
            raise ValueError("evaluate received no batches")
        mean_metric = float(np.mean(metrics)) if metrics else float("nan")
        return float(np.mean(losses)), mean_metric

    # ------------------------------------------------------------------
    # Fit loop.
    # ------------------------------------------------------------------
    def fit(
        self, train_batches: BatchesFn, val_batches: BatchesFn, epochs: int
    ) -> History:
        """Run the train/validate loop for ``epochs`` epochs.

        Each epoch trains under the phase schedule, validates, steps the
        LR schedulers and appends one row to :attr:`history`; callbacks
        may stop the loop early via :meth:`request_stop`.
        ``history.bp_batches``/``gp_batches`` always record *true*
        per-phase batch counts (warm-up counts as BP: both run true
        backprop).
        """
        # A dropped engine is freed by refcount (strategies hold their
        # engine weakly), unless its owner wrapped a method by attribute
        # replacement — ``engine.train_batch = timed(engine.train_batch)``,
        # as the benchmark's step log and sweep loops do — which closes a
        # cycle from outside.  Sweeps fit dozens of engines per process,
        # so free the previous one (model, grads, optimizer slots,
        # predictor: ~1 MB each) before this fit allocates its own, not
        # whenever generation 2 next fills.  Measured 5-10 ms at 28 k
        # tracked objects, against fits >= 0.5 s.
        gc.collect()
        self.stop_requested = False
        self.callbacks.on_fit_begin(self, epochs)
        for _ in range(epochs):
            epoch = self.current_epoch
            self.callbacks.on_epoch_begin(self, epoch)
            stats = self.train_epoch(train_batches(), epoch)
            val_loss, val_metric = self.evaluate(val_batches())
            if self.lr_scheduler is not None:
                self.lr_scheduler.step(val_loss)
            if self.predictor_scheduler is not None:
                self.predictor_scheduler.step()
            counts = stats.counts
            self.history.train_loss.append(stats.loss)
            self.history.val_loss.append(val_loss)
            self.history.val_metric.append(val_metric)
            true_grad = counts[Phase.BP] + counts[Phase.WARMUP]
            self.history.bp_batches.append(true_grad)
            self.history.gp_batches.append(counts[Phase.GP])
            self.history.gp_fraction.append(
                counts[Phase.GP] / (true_grad + counts[Phase.GP])
            )
            if self.predictor is not None:
                self.history.predictor_mse.append(stats.predictor_mse)
                self.history.predictor_mape.append(stats.predictor_mape)
            self.current_epoch += 1
            logs = {
                "epoch": epoch,
                "train_loss": stats.loss,
                "val_loss": val_loss,
                "val_metric": val_metric,
                "counts": counts,
            }
            self.callbacks.on_epoch_end(self, epoch, logs)
            if self.stop_requested:
                break
        self.callbacks.on_fit_end(self)
        return self.history

    # ------------------------------------------------------------------
    # Checkpointing.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete mutable state (weights, optimizer slots, schedulers,
        predictor, schedule quality, History, epoch counter)."""
        return checkpoint_io.engine_state(self)

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this engine."""
        checkpoint_io.load_engine_state(self, state)

    def save_checkpoint(self, path: str) -> None:
        """Write :meth:`state_dict` to ``path``."""
        checkpoint_io.save_checkpoint(self, path)

    def load_checkpoint(self, path: str) -> None:
        """Restore state saved by :meth:`save_checkpoint`; training then
        resumes from the recorded epoch."""
        checkpoint_io.load_checkpoint(self, path)
