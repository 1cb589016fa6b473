"""Per-batch phase strategies for the :class:`TrainingEngine`.

ADA-GP, its BP baseline and the DNI baseline differ only in what one
training batch does — *when* gradient predictions are trained and
applied (paper §2/§3).  Each variant is a :class:`PhaseStrategy`:

* :class:`BackpropStrategy` — forward + backward + optimizer step; with
  ``train_predictor=True`` it is ADA-GP's Warm-Up / Phase BP (§3.3): the
  predictor additionally learns every predictable layer's true gradient,
  through the batched fast path by default.
* :class:`GradPredictStrategy` — ADA-GP's Phase GP (§3.4): backprop is
  skipped and the batch runs under :func:`~repro.nn.no_grad` (no
  backward caches are retained anywhere); a forward hook applies each
  layer's predicted update the moment that layer's forward pass
  completes, or ``batched_predict=True`` defers to one stacked
  ``predict_many`` + grouped apply after the forward.
* :class:`DNIStrategy` — the §2 baseline: synthetic gradients are
  applied during *every* forward pass and full backprop still runs
  afterwards, so it never saves backward work.

The engine selects a strategy per batch from its phase schedule; adding
a new training scheme (a new backend, a pipelined variant, ...) is one
new strategy class, not a fourth copy of the fit loop.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ...nn.backend import BackendSpec, resolve_backend
from ...nn.losses import loss_value
from ...nn.module import Module, no_grad
from ..schedule import Phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import TrainingEngine


@dataclass
class BatchResult:
    """Outcome of one training batch.

    ``predictor_mse``/``predictor_mape`` map predictable-layer index to
    that layer's prediction error for this batch (``None`` when the
    strategy did not train the predictor).
    """

    loss: float
    phase: Phase
    predictor_mse: Optional[dict[int, float]] = None
    predictor_mape: Optional[dict[int, float]] = None
    #: How many worker-shard batches this result aggregates.  Serial
    #: strategies leave it at 1; the data-parallel strategy reports its
    #: active world size so rank-0 throughput accounting can reduce
    #: worker batch counts instead of multiply-counting wall time
    #: (see ``ThroughputTimer``).
    shard_batches: int = 1


class PhaseStrategy:
    """One way of running a training batch; bound to an engine at setup.

    ``backend`` optionally pins this strategy's batches to a compute
    backend (name or instance).  The engine enters that scope around
    ``train_batch``, preferring the strategy's backend over its own —
    e.g. Phase-GP forward streams can run ``"fused"`` while BP batches
    stay on the reference backend.  ``None`` inherits the engine's
    backend (and, failing that, the global default).
    """

    def __init__(self, backend: Optional[BackendSpec] = None) -> None:
        self._engine_ref: Optional[weakref.ref] = None
        self.backend = resolve_backend(backend)

    @property
    def engine(self) -> Optional["TrainingEngine"]:
        """The engine this strategy is bound to.  Held weakly: the
        engine owns its strategies, and a strong back-reference would
        make every finished engine (model, grads, optimizer slots,
        predictor) cyclic garbage that lives until a generation-2
        collection instead of being freed when its last user drops it."""
        return None if self._engine_ref is None else self._engine_ref()

    def bind(self, engine: "TrainingEngine") -> None:
        self._engine_ref = weakref.ref(engine)

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        raise NotImplementedError


def install_capture_hooks(
    engine: "TrainingEngine", store: dict[int, np.ndarray]
) -> None:
    """Hook every predictable layer to record its output into ``store``
    (keyed by ``id(layer)``) — the activation-capture side of both
    predictor training and batched Phase-GP."""

    def hook(layer: Module, output: np.ndarray) -> None:
        store[id(layer)] = output

    for layer in engine.layers:
        layer.forward_hook = hook


class BackpropStrategy(PhaseStrategy):
    """Standard backprop batch, optionally also training the predictor.

    ``batched=True`` routes predictor training through
    :meth:`GradientPredictor.train_step_many`, which stacks all layers'
    reorganized activations into a single predictor forward/backward —
    the BP-phase hot path of the paper's software loop.  ``batched=False``
    keeps the per-layer loop over the same path (one optimizer step per
    layer); the two are numerically equivalent at the gradient level
    (``tests/core/test_predictor_batched.py``) but follow slightly
    different Adam trajectories, which neither the paper nor the
    accelerator model distinguishes.
    """

    def __init__(
        self,
        train_predictor: bool = False,
        batched: bool = True,
        backend: Optional[BackendSpec] = None,
    ) -> None:
        super().__init__(backend=backend)
        self.train_predictor = train_predictor
        self.batched = batched
        self._activations: dict[int, np.ndarray] = {}

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        result = self.forward_backward(inputs, targets, phase)
        self.engine.optimizer.step()
        return result

    def forward_backward(
        self, inputs, targets, phase: Phase, grad_scale: float = 1.0
    ) -> BatchResult:
        """Forward + backward (+ predictor training) without the
        optimizer step, leaving the batch's gradients in ``param.grad``.

        This is the gradient-computation half of :meth:`train_batch` and
        the per-rank seam of :class:`repro.dist.DataParallelStrategy`:
        each data-parallel rank computes its shard's gradients here,
        scaled by ``grad_scale`` (its shard's fraction of the global
        batch, so the rank-summed gradient matches full-batch
        mean-reduction semantics), and the reduced gradient is applied
        in a separate step.  ``grad_scale=1.0`` skips the scaling
        entirely, keeping the serial path bitwise unchanged.

        Predictor training (when enabled) runs on the *local* gradients
        computed here — it touches neither model parameters nor
        ``param.grad``, so running it before or after the optimizer step
        is bitwise equivalent.
        """
        engine = self.engine
        engine.model.train()
        capture = self.train_predictor and engine.predictor is not None
        if capture:
            self._activations.clear()
            install_capture_hooks(engine, self._activations)
        try:
            outputs = engine.model(inputs)
            loss, grad = engine.loss_fn(outputs, targets)
            if grad_scale != 1.0:
                grad = grad * np.float32(grad_scale)
            engine.optimizer.zero_grad()
            engine.model.backward(grad)
        finally:
            if capture:
                engine.clear_hooks()
        if not capture:
            return BatchResult(loss=loss, phase=phase)
        mse_by_layer, mape_by_layer = self._train_predictor()
        return BatchResult(
            loss=loss,
            phase=phase,
            predictor_mse=mse_by_layer,
            predictor_mape=mape_by_layer,
        )

    def _train_predictor(self) -> tuple[dict[int, float], dict[int, float]]:
        """One predictor update on every layer's true gradients (§3.3)."""
        engine = self.engine
        entries = []
        for index, layer in enumerate(engine.layers):
            output = self._activations.get(id(layer))
            if output is None or layer.weight.grad is None:
                continue
            bias_grad = layer.bias.grad if layer.bias is not None else None
            entries.append((index, layer, output, layer.weight.grad, bias_grad))
        if not entries:
            return {}, {}
        if self.batched and len(entries) > 1:
            metrics = engine.predictor.train_step_many(
                [e[1] for e in entries],
                [e[2] for e in entries],
                [e[3] for e in entries],
                [e[4] for e in entries],
            )
        else:
            metrics = [
                engine.predictor.train_step(layer, output, weight_grad, bias_grad)
                for _, layer, output, weight_grad, bias_grad in entries
            ]
        mse_by_layer: dict[int, float] = {}
        mape_by_layer: dict[int, float] = {}
        for (index, *_), (mse, mape) in zip(entries, metrics):
            mse_by_layer[index] = mse
            mape_by_layer[index] = mape
            if hasattr(engine.schedule, "observe_mape"):
                engine.schedule.observe_mape(mape)
        return mse_by_layer, mape_by_layer


def apply_predicted_update(
    engine: "TrainingEngine", layer: Module, output: np.ndarray
) -> None:
    """Predict a layer's gradients from its activations and apply them
    through the GP optimizer (the plain-MAC hardware update path)."""
    weight_grad, bias_grad = engine.predictor.predict(layer, output)
    engine.gp_optimizer.apply_gradient(layer.weight, weight_grad)
    if layer.bias is not None and bias_grad is not None:
        engine.gp_optimizer.apply_gradient(layer.bias, bias_grad)


def install_predict_hooks(engine: "TrainingEngine") -> None:
    """Hook every predictable layer to apply its predicted update the
    moment its forward pass completes (§3.4)."""

    def hook(layer: Module, output: np.ndarray) -> None:
        apply_predicted_update(engine, layer, output)

    for layer in engine.layers:
        layer.forward_hook = hook


class GradPredictStrategy(PhaseStrategy):
    """Phase GP batch: forward-only with predicted updates, under no-grad.

    The whole batch runs inside :func:`~repro.nn.no_grad` — backprop can
    never happen in Phase GP, so no layer retains a backward cache, conv
    im2col workspaces return to the backend pool mid-forward, and the
    loss is evaluated value-only (:func:`~repro.nn.losses.loss_value`)
    for monitoring; no gradient ever touches ``param.grad``.

    ``batched_predict`` selects *when* predictions are applied:

    * ``False`` (default, §3.4-faithful): a forward hook applies each
      layer's predicted update the moment its forward completes — the
      in-flight timing the accelerator implements (the update lands on
      weights whose forward work for this batch is already done, so on
      a single-pass feed-forward chain the resulting weights equal the
      deferred mode's; the timing matters for hardware overlap, for
      models that reuse a layer object within one forward, and across
      batches).
    * ``True``: the forward only *collects* predictable-layer
      activations; afterwards one stacked
      :meth:`~repro.core.predictor.GradientPredictor.predict_many`
      call predicts every layer and one grouped
      ``gp_optimizer.apply_gradients`` applies them — far fewer
      predictor invocations per batch, updates landing after the
      forward instead of during it (the ROADMAP "Batched GP phase"
      item; accuracy/throughput comparison in
      ``examples/batched_gp_tradeoff.py``).
    """

    def __init__(
        self,
        batched_predict: bool = False,
        backend: Optional[BackendSpec] = None,
    ) -> None:
        super().__init__(backend=backend)
        self.batched_predict = batched_predict
        self._activations: dict[int, np.ndarray] = {}

    def _apply_collected(self) -> None:
        """One stacked predict + one grouped optimizer apply (post-forward)."""
        engine = self.engine
        entries = [
            (layer, self._activations[id(layer)])
            for layer in engine.layers
            if id(layer) in self._activations
        ]
        self._activations.clear()
        if not entries:
            return
        layers = [layer for layer, _ in entries]
        predictions = engine.predictor.predict_many(
            layers, [output for _, output in entries]
        )
        updates = []
        for layer, (weight_grad, bias_grad) in zip(layers, predictions):
            updates.append((layer.weight, weight_grad))
            if layer.bias is not None and bias_grad is not None:
                updates.append((layer.bias, bias_grad))
        engine.gp_optimizer.apply_gradients(updates)

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        engine = self.engine
        engine.model.train()
        if self.batched_predict:
            self._activations.clear()
            install_capture_hooks(engine, self._activations)
        else:
            install_predict_hooks(engine)
        try:
            with no_grad():
                outputs = engine.model(inputs)
        finally:
            engine.clear_hooks()
        if self.batched_predict:
            self._apply_collected()
        loss = loss_value(engine.loss_fn, outputs, targets)  # monitoring only
        return BatchResult(loss=loss, phase=Phase.GP)


class PipelineGPStrategy(BackpropStrategy):
    """Pipeline-parallel ADA-GP on stage-partitioned models (§3.7, Fig 20).

    On first batch, the engine's ``Sequential`` model is split into
    ``num_stages`` balanced stage sub-models (accel cost model, see
    :mod:`repro.pipeline.partition`) and every batch thereafter runs on
    the event-driven micro-batch executor with per-stage virtual device
    clocks (:mod:`repro.pipeline.executor`):

    * WARMUP/BP batches execute the GPipe- or DAPPLE-ordered fw/bw
      schedule (gradients identical to full-batch backprop for
      mean-reduction losses) and train the predictor exactly like
      :class:`BackpropStrategy`;
    * GP batches stream forward-only micro-batches with each predictable
      layer's predicted update applied the moment its forward completes
      — the Phase-GP work that fills the pipeline bubbles.  Predictor
      predict+apply time runs inside the measured forward slot, so the
      paper's alpha overhead is part of the measurement.  By default the
      update fires once per batch, on the *final* micro-batch's forward,
      predicting from the accumulated full-batch activations — the same
      update semantics and cost as the single-chip
      :class:`GradPredictStrategy` (the hardware overlaps alpha on a
      dedicated array, software pays it per invocation);
      ``apply_every_micro=True`` instead applies per micro-batch from
      that micro-batch's activations alone.

    Device clocks persist across batches, making the executor's
    ``timeline`` a *measured* Fig 20: its makespan is the multi-device
    critical path of the actual phase sequence, validated against the
    simulator's dependency rules via ``executor.validate()``.
    """

    def __init__(
        self,
        num_stages: int = 2,
        micro_batches: int = 4,
        kind: str = "GPipe",
        train_predictor: bool = True,
        batched: bool = True,
        apply_every_micro: bool = False,
        backend: Optional[BackendSpec] = None,
    ) -> None:
        super().__init__(
            train_predictor=train_predictor, batched=batched, backend=backend
        )
        self.num_stages = num_stages
        self.micro_batches = micro_batches
        self.kind = kind
        self.apply_every_micro = apply_every_micro
        self.executor = None  # built lazily (needs the input shape)
        self._activation_chunks: dict[int, list[np.ndarray]] = {}

    def _ensure_executor(self, inputs: np.ndarray) -> None:
        if self.executor is not None:
            return
        # Imported here: repro.core.engine must stay importable without
        # dragging the pipeline package (and its accel/models deps) in.
        from ...pipeline.executor import PipelineExecutor
        from ...pipeline.schedules import PipelineKind

        self.executor = PipelineExecutor.from_model(
            self.engine.model,
            self.num_stages,
            input_shape=inputs.shape[1:],
            micro_batches=self.micro_batches,
            kind=PipelineKind(self.kind),
        )

    def _install_pipeline_capture_hooks(self) -> None:
        """Collect every micro-batch's activations so predictor training
        sees the full batch (concatenated), matching BackpropStrategy's
        activation/gradient pairing."""
        chunks = self._activation_chunks

        def hook(layer: Module, output: np.ndarray) -> None:
            chunks.setdefault(id(layer), []).append(output)

        for layer in self.engine.layers:
            layer.forward_hook = hook

    def _install_pipeline_predict_hooks(self) -> None:
        engine = self.engine
        if self.apply_every_micro:
            install_predict_hooks(engine)
            return
        # Accumulate each layer's micro-batch activations and predict
        # once from the full batch when its last micro-batch forward
        # completes — single-chip GradPredictStrategy semantics, with
        # the predict+apply still inside that measured forward slot.
        executor = self.executor
        last_micro = executor.config.micro_batches - 1
        chunks: dict[int, list[np.ndarray]] = {}

        def hook(layer: Module, output: np.ndarray) -> None:
            parts = chunks.setdefault(id(layer), [])
            parts.append(output)
            if executor.current_micro == last_micro:
                apply_predicted_update(
                    engine, layer, np.concatenate(parts, axis=0)
                )
                parts.clear()

        for layer in engine.layers:
            layer.forward_hook = hook

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        engine = self.engine
        engine.model.train()
        self._ensure_executor(inputs)
        if phase == Phase.GP:
            if engine.predictor is not None:
                self._install_pipeline_predict_hooks()
            try:
                # Forward-only micro-batch streams: no stage will ever
                # run backward on them, so the whole streamed batch is
                # cache-free (predict hooks still fire inside the
                # measured slots).
                with no_grad():
                    run = self.executor.run_gp_batch(
                        inputs, targets, engine.loss_fn
                    )
            finally:
                engine.clear_hooks()
            return BatchResult(loss=run.loss, phase=Phase.GP)
        capture = self.train_predictor and engine.predictor is not None
        if capture:
            self._activations.clear()
            self._activation_chunks.clear()
            self._install_pipeline_capture_hooks()
        try:
            engine.optimizer.zero_grad()
            run = self.executor.run_bp_batch(inputs, targets, engine.loss_fn)
            engine.optimizer.step()
        finally:
            if capture:
                engine.clear_hooks()
        if not capture:
            return BatchResult(loss=run.loss, phase=phase)
        self._activations = {
            key: np.concatenate(chunks, axis=0)
            for key, chunks in self._activation_chunks.items()
        }
        self._activation_chunks.clear()
        mse_by_layer, mape_by_layer = self._train_predictor()
        return BatchResult(
            loss=run.loss,
            phase=phase,
            predictor_mse=mse_by_layer,
            predictor_mape=mape_by_layer,
        )


class DNIStrategy(PhaseStrategy):
    """DNI batch (Jaderberg et al. 2017): synthetic updates + full BP.

    Each batch applies scaled synthetic gradients layer-by-layer during
    forward, then still runs complete backpropagation to update the
    model with true gradients and train the predictor — strictly more
    work than plain BP, which is the paper's §2 point ("DNI does not
    improve training time").
    """

    def __init__(
        self,
        synthetic_lr_scale: float = 0.1,
        backend: Optional[BackendSpec] = None,
    ) -> None:
        super().__init__(backend=backend)
        self.synthetic_lr_scale = synthetic_lr_scale
        self._activations: dict[int, np.ndarray] = {}

    def _install_dni_hooks(self) -> None:
        engine = self.engine

        def hook(layer: Module, output: np.ndarray) -> None:
            # DNI's decoupled update: apply the synthetic gradient the
            # moment the layer's forward completes...
            self._activations[id(layer)] = output
            weight_grad, bias_grad = engine.predictor.predict(layer, output)
            engine.optimizer.apply_gradient(
                layer.weight, self.synthetic_lr_scale * weight_grad
            )
            if layer.bias is not None and bias_grad is not None:
                engine.optimizer.apply_gradient(
                    layer.bias, self.synthetic_lr_scale * bias_grad
                )

        for layer in engine.layers:
            layer.forward_hook = hook

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        engine = self.engine
        engine.model.train()
        self._activations.clear()
        self._install_dni_hooks()
        try:
            outputs = engine.model(inputs)
        finally:
            engine.clear_hooks()
        # ...and then backpropagation still runs in full (§2).
        loss, grad = engine.loss_fn(outputs, targets)
        engine.optimizer.zero_grad()
        engine.model.backward(grad)
        engine.optimizer.step()
        mse_by_layer: dict[int, float] = {}
        mape_by_layer: dict[int, float] = {}
        for index, layer in enumerate(engine.layers):
            output = self._activations.get(id(layer))
            if output is None or layer.weight.grad is None:
                continue
            bias_grad = layer.bias.grad if layer.bias is not None else None
            mse, mape = engine.predictor.train_step(
                layer, output, layer.weight.grad, bias_grad
            )
            mse_by_layer[index] = mse
            mape_by_layer[index] = mape
        return BatchResult(
            loss=loss,
            phase=phase,
            predictor_mse=mse_by_layer,
            predictor_mape=mape_by_layer,
        )
