"""Per-batch phase strategies for the :class:`TrainingEngine`.

The paper defines a training batch as three steps, and this module
writes each of them once, on :class:`PhaseStrategy`:

1. *observe* every served layer's output — :meth:`PhaseStrategy.tap`,
   the only code that installs a forward hook on ``engine.layers``;
2. *train* the predictor on the layers' true gradients (§3.3, Warm-Up /
   Phase BP) — :meth:`PhaseStrategy._train_predictor`; or
3. *predict* the gradients and apply them (§3.4, Phase GP) —
   :meth:`PhaseStrategy._apply_predictions`, together with a zero
   gradient for every predictable layer the predictor does not serve
   (``engine.coast``: the BN-fed ones, which coast on momentum).

Steps 2 and 3 are the only code that touches ``engine.predictor``.  The
schemes differ in which steps run and in *how forward/backward run*:

* :class:`BackpropStrategy` — tap → ``run_forward_backward`` → train the
  predictor (when ``train_predictor=True``: ADA-GP's Warm-Up / Phase BP),
  then the optimizer step.
* :class:`GradPredictStrategy` — ADA-GP's Phase GP: backprop is skipped
  and the batch runs under :func:`~repro.nn.no_grad`; the tap keeps
  every served layer's output, and after ``run_forward`` one stacked
  predict + one grouped apply (predictions and coast) update every
  predictable layer.  The paper's in-flight timing (§3.4) is a hardware
  overlap; on one device each layer's deferred update lands on the same
  weights, because every served layer runs once per forward (the tap
  raises otherwise).
* :class:`PipelineGPStrategy` — §3.7: the Phase-BP body with the two
  ``run_*`` primitives swapped for the micro-batch pipeline executor,
  and a Phase-GP body that applies each served layer's update in
  flight, so the predict lands inside the measured stage slot, and the
  coast once after the forward.

The engine selects a strategy per batch from its phase schedule.  Adding
a scheme is choosing the tap's ``on_output`` and the two ``run_*``
primitives, not another copy of the hooks and the predictor calls.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import numpy as np

from ...nn.losses import loss_value
from ...nn.module import Module, no_grad
from ...nn.optim import Optimizer
from ...obs.trace import PREDICTOR_TRAIN, current_phase, tracer as _obs_tracer
from ..schedule import Phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import TrainingEngine

OnOutput = Callable[[Module, np.ndarray], None]


@dataclass
class BatchResult:
    """Outcome of one training batch.

    ``predictor_mse``/``predictor_mape`` map served-layer index to
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
    """One way of running a training batch; bound to an engine at setup."""

    #: How many times each served layer's forward runs per batch
    #: (a pipeline's micro-batch count); the tap joins that many chunks.
    chunks = 1

    def __init__(self) -> None:
        self._engine_ref: Optional[weakref.ref] = None

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

    def on_state_loaded(self) -> None:
        """The engine's state was just replaced from a checkpoint; a
        strategy holding copies of it drops them.  No-op by default."""

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        raise NotImplementedError

    # -- how forward/backward run: the two primitives a scheme may swap ----
    def run_forward_backward(self, inputs, targets, grad_scale: float = 1.0) -> float:
        """Forward + backward leaving the batch's gradients in
        ``param.grad``; returns the loss.  ``grad_scale=1.0`` skips the
        scaling entirely, keeping the serial path bitwise unchanged."""
        engine = self.engine
        outputs = engine.model(inputs)
        loss, grad = engine.loss_fn(outputs, targets)
        if grad_scale != 1.0:
            grad = grad * np.float32(grad_scale)
        engine.optimizer.zero_grad()
        engine.model.backward(grad)
        return loss

    def run_forward(self, inputs, targets) -> float:
        """Forward only, under no-grad — no layer retains a backward
        cache and conv workspaces return to the backend pool
        mid-forward; the loss is evaluated value-only, for monitoring."""
        engine = self.engine
        with no_grad():
            outputs = engine.model(inputs)
        return loss_value(engine.loss_fn, outputs, targets)

    # -- the three steps ---------------------------------------------------
    @contextmanager
    def tap(
        self, on_output: Optional[OnOutput] = None, keep: bool = True
    ) -> Iterator[dict[int, np.ndarray]]:
        """Observe every served layer's output for one batch.

        Yields an ``id(layer) -> full-batch activation`` store that is
        *local to the batch* — kept as a strategy attribute it pinned
        every served layer's output (1–3 MB on the mini models)
        until the next BP batch, while the model drops its caches after
        every batch.  ``keep=False`` leaves it empty, for callers that
        consume each activation in ``on_output``.

        ``on_output(layer, activation)`` fires the moment a layer's
        batch is complete — §3.4's in-flight timing.  When layers run
        ``chunks`` times per batch the chunks are joined in the hook
        only if ``on_output`` needs the joined array (so predict + apply
        stay inside the last micro-batch's measured slot); otherwise
        they are joined after the forward, outside any measured slot.
        A layer that runs more than ``chunks`` times (one object reused
        within a forward) raises ``ValueError``: its activations would
        overwrite each other.  Hooks are always cleared.
        """
        engine = self.engine
        chunks = self.chunks
        store: dict[int, np.ndarray] = {}
        parts: dict[int, list[np.ndarray]] = {}
        calls: dict[int, int] = {}

        def hook(layer: Module, output: np.ndarray) -> None:
            seen = calls[id(layer)] = calls.get(id(layer), 0) + 1
            if seen > chunks:
                name = next(row.name for row in engine.table.rows if row.module is layer)
                raise ValueError(
                    f"predictable layer {name!r} "
                    f"({type(layer).__name__}) ran {seen} times in one batch, "
                    f"expected {chunks}: a layer object reused within a "
                    "forward cannot be tapped"
                )
            if chunks > 1:
                got = parts.setdefault(id(layer), [])
                got.append(output)
                if on_output is None or len(got) < chunks:
                    return
                output = np.concatenate(parts.pop(id(layer)), axis=0)
            if keep:
                store[id(layer)] = output
            if on_output is not None:
                on_output(layer, output)

        for layer in engine.layers:
            layer.forward_hook = hook
        try:
            yield store
        finally:
            engine.clear_hooks()
        for key, got in parts.items():
            store[key] = np.concatenate(got, axis=0)

    def _train_predictor(
        self, activations: dict[int, np.ndarray]
    ) -> tuple[dict[int, float], dict[int, float]]:
        """One predictor update on every tapped layer's true gradients
        (§3.3); returns per-layer ``(mse, mape)`` before the update.

        All tapped layers are stacked into a single predictor
        forward/backward and one Adam step — the BP-phase hot path of
        the paper's software loop.  The stacked update is held to the
        per-layer :meth:`GradientPredictor.train_step` reference at the
        gradient level by ``tests/core/test_predictor_batched.py``.
        """
        engine = self.engine
        indices, layers = [], []
        for index, layer in enumerate(engine.layers):
            if id(layer) in activations and layer.weight.grad is not None:
                indices.append(index)
                layers.append(layer)
        if not layers:
            return {}, {}
        outputs = [activations[id(layer)] for layer in layers]
        weight_grads = [layer.weight.grad for layer in layers]
        bias_grads = [
            layer.bias.grad if layer.bias is not None else None for layer in layers
        ]
        # begin/end rather than ``span``: a span would push its phase tag
        # and move the predictor's backend ops out of the batch's phase.
        tracer = _obs_tracer()
        span = tracer.begin(
            "predictor.train", phase=PREDICTOR_TRAIN, layers=len(layers)
        )
        metrics = engine.predictor.train_step_many(
            layers, outputs, weight_grads, bias_grads
        )
        tracer.end(span)
        mse_by_layer: dict[int, float] = {}
        mape_by_layer: dict[int, float] = {}
        for index, (mse, mape) in zip(indices, metrics):
            mse_by_layer[index] = mse
            mape_by_layer[index] = mape
            if engine.schedule is not None:
                engine.schedule.observe_mape(mape)
        return mse_by_layer, mape_by_layer

    def _apply_predictions(
        self,
        layers: list[Module],
        outputs: list[np.ndarray],
        optimizer: Optimizer,
        coast: Sequence[tuple] = (),
    ) -> None:
        """Predict the layers' gradients from their activations in one
        stacked predictor call and apply them through ``optimizer`` in
        one grouped apply — the plain-MAC hardware update path — with
        the ``coast`` updates (``engine.coast``) riding in the same
        call.  In-flight callers pass one-layer lists and no coast."""
        if not layers:
            return
        tracer = _obs_tracer()
        span = tracer.begin(
            "predictor.predict", phase=current_phase(), layers=len(layers)
        )
        predictions = self.engine.predictor.predict_many(layers, outputs)
        tracer.end(span)
        updates = []
        for layer, (weight_grad, bias_grad) in zip(layers, predictions):
            updates.append((layer.weight, weight_grad))
            if layer.bias is not None and bias_grad is not None:
                updates.append((layer.bias, bias_grad))
        updates.extend(coast)
        optimizer.apply_gradients(updates)


class BackpropStrategy(PhaseStrategy):
    """Standard backprop batch, optionally also training the predictor
    (``train_predictor=True``: ADA-GP's Warm-Up / Phase BP)."""

    def __init__(self, train_predictor: bool = False) -> None:
        super().__init__()
        self.train_predictor = train_predictor

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
        in a separate step.

        Predictor training (when enabled) runs on the *local* gradients
        computed here — it touches neither model parameters nor
        ``param.grad``, so running it before or after the optimizer step
        is bitwise equivalent.
        """
        engine = self.engine
        engine.set_training(True)
        if not self.train_predictor or engine.predictor is None:
            loss = self.run_forward_backward(inputs, targets, grad_scale)
            return BatchResult(loss=loss, phase=phase)
        with self.tap() as activations:
            loss = self.run_forward_backward(inputs, targets, grad_scale)
        errors = self._train_predictor(activations)
        return BatchResult(loss, phase, *errors)


class GradPredictStrategy(PhaseStrategy):
    """Phase GP batch (§3.4): forward-only under no-grad, then one
    stacked predictor call predicts every served layer from its tapped
    output and one grouped ``gp_optimizer.apply_gradients`` applies them
    and the coast.  No gradient ever touches ``param.grad``."""

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        engine = self.engine
        engine.set_training(True)
        with self.tap() as activations:
            loss = self.run_forward(inputs, targets)
        layers = [layer for layer in engine.layers if id(layer) in activations]
        outputs = [activations[id(layer)] for layer in layers]
        self._apply_predictions(layers, outputs, engine.gp_optimizer, engine.coast)
        return BatchResult(loss=loss, phase=Phase.GP)


class PipelineGPStrategy(BackpropStrategy):
    """Pipeline-parallel ADA-GP on stage-partitioned models (§3.7, Fig 20).

    The batch bodies are :class:`BackpropStrategy`'s and the Phase-GP
    one; this class only swaps *how forward/backward run*.  On first
    batch the engine's ``Sequential`` model is split into ``num_stages``
    balanced stage sub-models (accel cost model, see
    :mod:`repro.pipeline.partition`) and every batch thereafter runs on
    the event-driven micro-batch executor with per-stage virtual device
    clocks (:mod:`repro.pipeline.executor`):

    * WARMUP/BP batches execute the GPipe- or DAPPLE-ordered fw/bw
      schedule (gradients identical to full-batch backprop for
      mean-reduction losses); the predictor trains on each layer's
      micro-batch outputs joined back into the full batch;
    * GP batches stream forward-only micro-batches.  Each served
      layer's update fires once per batch, on its *final* micro-batch's
      forward, predicted from the joined full-batch activations — the
      same updates the single-chip :class:`GradPredictStrategy` applies
      after its forward — and runs inside that measured
      forward slot, so the paper's alpha overhead is part of the
      measurement (the hardware overlaps alpha on a dedicated array,
      software pays it per invocation).  The coast is applied once,
      after the forward.

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
    ) -> None:
        super().__init__(train_predictor=True)
        self.num_stages = num_stages
        self.micro_batches = micro_batches
        self.kind = kind
        self.executor = None  # built lazily (needs the input shape)

    @property
    def chunks(self) -> int:
        return self.micro_batches

    def _ensure_executor(self, inputs: np.ndarray):
        if self.executor is None:
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
        return self.executor

    def run_forward_backward(self, inputs, targets, grad_scale: float = 1.0) -> float:
        if grad_scale != 1.0:
            raise ValueError(
                f"PipelineGPStrategy cannot apply grad_scale={grad_scale}: the "
                "executor already rescales every micro-batch's loss gradient, "
                "so a pipeline cannot be a data-parallel rank"
            )
        executor = self._ensure_executor(inputs)
        self.engine.optimizer.zero_grad()
        return executor.run_bp_batch(inputs, targets, self.engine.loss_fn).loss

    def run_forward(self, inputs, targets) -> float:
        executor = self._ensure_executor(inputs)
        # Forward-only micro-batch streams: no stage will ever run
        # backward on them, so the whole streamed batch is cache-free.
        with no_grad():
            return executor.run_gp_batch(inputs, targets, self.engine.loss_fn).loss

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        if phase != Phase.GP:
            return super().train_batch(inputs, targets, phase)
        engine = self.engine
        engine.set_training(True)
        optimizer = engine.gp_optimizer

        def in_flight(layer: Module, output: np.ndarray) -> None:
            self._apply_predictions([layer], [output], optimizer)

        with self.tap(in_flight, keep=False):
            loss = self.run_forward(inputs, targets)
        optimizer.apply_gradients(engine.coast)
        return BatchResult(loss=loss, phase=Phase.GP)
