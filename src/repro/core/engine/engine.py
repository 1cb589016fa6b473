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
from ...nn.graph import trace
from ...obs.trace import EVAL, phase_scope, phase_tag, tracer as _obs_tracer
from ...nn.module import Module, Parameter, PredictableMixin
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

    ``predictor_mse``/``predictor_mape`` map served-layer index to
    the epoch-mean prediction error (empty when no predictor trained).
    """

    loss: float
    counts: dict[Phase, int]
    predictor_mse: dict[int, float] = field(default_factory=dict)
    predictor_mape: dict[int, float] = field(default_factory=dict)


class TrainingEngine:
    """Phase-scheduled training loop with callbacks and checkpointing.

    A model's structure is fixed once an engine wraps it: its module
    table (:func:`~repro.nn.graph.trace`, taken in ``__init__``),
    :attr:`layers`, optimizer parameter list and predictor sizing.

    Parameters
    ----------
    strategies:
        Either one :class:`PhaseStrategy` used for every phase, or a
        mapping ``{Phase: strategy}`` covering each phase the schedule
        can emit.
    schedule:
        ``HeuristicSchedule``/``AdaptiveSchedule`` (``phase_for``,
        ``state_dict``, ``load_state_dict``), or ``None`` to run every
        batch as :attr:`Phase.BP` — the plain-backprop configuration.
    predictor / gp_optimizer / predictor_scheduler:
        The ADA-GP machinery; all optional.  When ``predictor`` is set
        :attr:`layers` is the table's
        :attr:`~repro.nn.graph.ModuleTable.served` layers — every
        predictable one with ``all_layers`` — and the engine records
        per-layer predictor errors in History.  The predictable layers
        left out take a zero gradient in Phase GP (:attr:`coast`).
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
        backend: Optional[BackendSpec] = None,
        all_layers: bool = False,
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
        self.history = History()
        self.current_epoch = 0
        self.stop_requested = False
        # The ``engine.batch`` span's place in its epoch: set by
        # train_epoch, empty for a train_batch call outside one.
        self._batch_position: dict = {}
        self.table = trace(model)
        self.layers: list[PredictableMixin] = []
        #: Phase GP's zero gradients for the weight and bias of every
        #: predictable layer the predictor does not serve, allocated
        #: once: applied with the predictions, they step those
        #: parameters on the GP optimizer's momentum alone.
        self.coast: list[tuple[Parameter, np.ndarray]] = []
        if predictor is not None:
            self.layers = self.table.predictable if all_layers else self.table.served
            served = set(map(id, self.layers))
            self.coast = [
                (param, np.zeros_like(param.data))
                for layer in self.table.predictable
                if id(layer) not in served
                for param in (layer.weight, layer.bias)
                if param is not None
            ]
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

    def set_training(self, training: bool) -> None:
        """``model.train()`` / ``model.eval()`` over :attr:`table`: the
        structure is fixed, so no batch re-walks the module tree."""
        for row in self.table.rows:
            row.module.training = training

    def clear_caches(self) -> None:
        """``model.clear_caches()`` over :attr:`table`."""
        for row in self.table.rows:
            row.module._clear_cache()

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
        tracer = _obs_tracer()
        span = tracer.begin(
            "engine.batch", phase=phase_tag(phase), **self._batch_position
        )
        # phase_scope (one list push/pop) lets obs attribute backend op
        # time to the scheduled phase even when tracing is off.
        with phase_scope(phase), backend_scope(self.backend):
            result = strategy.train_batch(inputs, targets, phase)
        self.clear_caches()
        tracer.end(span, loss=float(result.loss))
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
            self._batch_position = {"epoch": epoch, "batch": batch_index}
            result = self.train_batch(inputs, targets, phase)
            self._batch_position = {}
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
        self.set_training(False)
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
            self.set_training(True)
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
        tracer = _obs_tracer()
        fit_span = tracer.begin("engine.fit", epochs=epochs)
        self.callbacks.on_fit_begin(self, epochs)
        for _ in range(epochs):
            epoch = self.current_epoch
            epoch_span = tracer.begin("engine.epoch", epoch=epoch)
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
            tracer.end(epoch_span)
            if self.stop_requested:
                break
        self.callbacks.on_fit_end(self)
        tracer.end(fit_span)
        return self.history

    def metrics(self):
        """Every count owner the engine reaches, read now, each once by
        identity: the callbacks, the strategies and their ``comm``
        ledgers, the backend (unwrapped from a ``ProfilingBackend``),
        its workspace pool and fold caches (labelled ``pass_name``) and
        the schedule.  ``MetricsRegistry.attach(engine)`` reads these
        rows at every snapshot."""
        backend = getattr(self.backend, "inner", self.backend)
        strategies = list(self.strategies.values())
        owners = [*self.callbacks, *strategies]
        owners += [getattr(strategy, "comm", None) for strategy in strategies]
        owners += [backend, getattr(backend, "pool", None), self.schedule]
        labelled = [(owner, {}) for owner in owners]
        pipeline = backend.fold_pipeline() if backend is not None else None
        for fold in getattr(pipeline, "passes", ()):
            labelled.append((fold.cache, {"pass_name": fold.name}))
        seen = set()
        for owner, labels in labelled:
            if id(owner) in seen or not callable(getattr(owner, "metrics", None)):
                continue
            seen.add(id(owner))
            for name, kind, value, row_labels in owner.metrics():
                yield name, kind, value, {**row_labels, **labels}

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
