"""Measure an engine from outside: timers for the untraced runs, span
wrappers around the public calls into each module for the traced run.

Nothing under ``src/`` is edited.  Both modes work by replacing instance
attributes on the objects an engine factory returned (bound methods are
looked up on the instance first) or by handing the engine a delegating
object, so the program runs its own code between the wrappers.
"""

from __future__ import annotations

import time

from repro.core.schedule import Phase
from repro.dist.strategy import DataParallelStrategy
from repro.nn.backend import NativeBackend
from repro.obs import MetricsRegistry, ProfilingBackend
from repro.obs.trace import EVAL, phase_tag

from .trace import Recorder


class StepLog:
    """Untraced per-step timings: two clock reads around each
    ``train_batch`` and each ``evaluate``, nothing else."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: (phase, seconds, loss, clock at the end of the batch)
        self.steps: list[tuple[str, float, float, float]] = []
        self.evals: list[float] = []

    def attach(self, engine) -> None:
        train_batch, evaluate = engine.train_batch, engine.evaluate
        clock = self.clock

        def timed_train_batch(inputs, targets, phase=Phase.BP):
            start = clock()
            result = train_batch(inputs, targets, phase)
            end = clock()
            self.steps.append((phase_tag(result.phase), end - start, result.loss, end))
            return result

        def timed_evaluate(batches):
            start = clock()
            out = evaluate(batches)
            self.evals.append(clock() - start)
            return out

        engine.train_batch = timed_train_batch
        engine.evaluate = timed_evaluate


class TracedLoss:
    """Delegating loss: the engine calls it (BP) or its ``value`` (GP,
    evaluate) and each call becomes an ``nn.losses`` span."""

    def __init__(self, loss_fn, recorder: Recorder) -> None:
        self._call = recorder.wrap(loss_fn, "nn.losses")
        if callable(getattr(loss_fn, "value", None)):
            self.value = recorder.wrap(loss_fn.value, "nn.losses")

    def __call__(self, outputs, targets):
        return self._call(outputs, targets)


class TracedTransport:
    """Delegating transport in the style of ``ChaosTransport``: spans
    around ``submit`` and ``collect`` (the time the driver waits for a
    rank), everything else passed through."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self.inner = inner
        self.submit = recorder.wrap(inner.submit, "dist.transport.submit")
        self.collect = recorder.wrap(inner.collect, "dist.transport.collect_wait")

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _wrap_method(obj, method: str, recorder: Recorder, name: str, phase_of=None) -> None:
    setattr(obj, method, recorder.wrap(getattr(obj, method), name, phase_of))


class Counters:
    """Counts the program keeps per batch window, summed over a fit.

    ``Module.clear_caches`` resets the workspace-pool and native
    dispatch counters after every batch, so they are read just before it
    runs (and once more when the fit ends)."""

    def __init__(self, backend) -> None:
        self.backend = backend
        backend.reset_stats()  # the previous fit's last evaluate left counts behind
        self.pool_hits = self.pool_misses = 0
        self.native_calls = self.fallback_calls = 0
        self._fold_base = self._fold_totals()

    def _fold_totals(self) -> tuple[int, int]:
        caches = [p.cache for p in self.backend.fold_pipeline().passes if p.cache is not None]
        return sum(c.hits for c in caches), sum(c.misses for c in caches)

    def collect(self) -> None:
        pool = self.backend.pool
        self.pool_hits += pool.hits
        self.pool_misses += pool.misses
        if isinstance(self.backend, NativeBackend):
            for paths in self.backend.dispatch_counts.values():
                self.native_calls += paths["native"]
                self.fallback_calls += paths["fallback"]
        self.backend.reset_stats()

    def snapshot(self) -> dict:
        self.collect()
        hits, misses = self._fold_totals()
        return {
            "nn.backend.pool.hits": self.pool_hits,
            "nn.backend.pool.misses": self.pool_misses,
            "nn.backend.pool.outstanding": self.backend.pool.outstanding,
            "nn.backend.native.native_calls": self.native_calls,
            "nn.backend.native.fallback_calls": self.fallback_calls,
            "nn.passes.fold_hits": hits - self._fold_base[0],
            "nn.passes.fold_misses": misses - self._fold_base[1],
        }


def trace_engine(engine, recorder: Recorder) -> tuple[Counters, MetricsRegistry]:
    """Wrap every module boundary of ``engine`` in spans and route its
    backend through a ``ProfilingBackend`` on a private registry.

    Returns the fit's counters and the registry holding the op view.
    """
    backend = engine.backend
    counters = Counters(backend)
    registry = MetricsRegistry()
    engine.backend = ProfilingBackend(backend, registry=registry, sample_every=1)

    _wrap_method(
        engine, "train_batch", recorder, "core.engine.train_batch",
        phase_of=lambda inputs, targets, phase=Phase.BP: phase_tag(phase),
    )
    _wrap_method(
        engine, "evaluate", recorder, "core.engine.evaluate", phase_of=lambda b: EVAL
    )
    for strategy in {id(s): s for s in engine.strategies.values()}.values():
        if isinstance(strategy, DataParallelStrategy):
            _wrap_method(strategy, "train_batch", recorder, "dist.strategy")
            strategy.transport = TracedTransport(strategy.transport, recorder)
        else:
            _wrap_method(strategy, "train_batch", recorder, "core.strategies")

    model = engine.model
    _wrap_method(model, "forward", recorder, "nn.layers.forward")
    _wrap_method(model, "backward", recorder, "nn.layers.backward")
    clear_caches = recorder.wrap(model.clear_caches, "core.engine.clear_caches")

    def counted_clear_caches():
        counters.collect()
        return clear_caches()

    model.clear_caches = counted_clear_caches
    engine.loss_fn = TracedLoss(engine.loss_fn, recorder)

    # One object serves both roles unless a separate gp_optimizer was given.
    for optimizer in {id(o): o for o in (engine.optimizer, engine.gp_optimizer)}.values():
        _wrap_method(optimizer, "step", recorder, "nn.optim.step")
        _wrap_method(optimizer, "zero_grad", recorder, "nn.optim.zero_grad")
        # apply_gradients loops over apply_gradient: the outer span keeps
        # only its own loop time, the per-tensor spans carry the work.
        _wrap_method(optimizer, "apply_gradients", recorder, "nn.optim.gp_apply_many")
        _wrap_method(optimizer, "apply_gradient", recorder, "nn.optim.gp_apply")

    predictor = engine.predictor
    if predictor is not None:
        _wrap_method(predictor, "train_step", recorder, "core.predictor.train")
        _wrap_method(predictor, "train_step_many", recorder, "core.predictor.train")
        _wrap_method(predictor, "predict", recorder, "core.predictor.predict")
        _wrap_method(predictor, "predict_many", recorder, "core.predictor.predict")
    if engine.schedule is not None:
        _wrap_method(engine.schedule, "phase_for", recorder, "core.schedule.phase_for")
    return counters, registry
