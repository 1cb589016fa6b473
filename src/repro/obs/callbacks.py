"""Engine callbacks attaching the tracer and metrics registry.

:class:`TracingCallback` opens one span per batch (named
``engine.batch``, phase-tagged from the scheduled phase) plus per-epoch
and per-fit framing spans; :class:`MetricsCallback` attaches every
count owner the engine reaches to the registry, which reads them
whenever a snapshot is taken — so callers attach two callbacks and
every snapshot, mid-epoch included, is current.

Both are *duck-typed* callbacks — they implement the six hook methods
plus ``state_dict``/``load_state_dict`` without importing
``repro.core`` (``CallbackList`` never type-checks), which keeps
``repro.obs`` import-cycle-free.
"""

from __future__ import annotations

from typing import Optional

from .metrics import MetricsRegistry, registry as _default_registry
from .trace import Tracer, phase_tag, tracer as _default_tracer


class TracingCallback:
    """Record ``engine.fit`` / ``engine.epoch`` / ``engine.batch`` spans.

    Batch spans carry the scheduled phase tag and, on close, the batch
    loss — so the Chrome trace alone can reconstruct a loss curve.
    Defaults to the process-global tracer; pass an explicit
    :class:`~repro.obs.trace.Tracer` (e.g. with an injected clock) for
    deterministic traces.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._tracer = tracer
        self._fit = None
        self._epoch = None
        self._batch = None

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else _default_tracer()

    # -- Callback protocol (duck-typed) ---------------------------------
    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass

    def on_fit_begin(self, engine, epochs):
        self._fit = self.tracer.begin("engine.fit", epochs=epochs)

    def on_epoch_begin(self, engine, epoch):
        self._epoch = self.tracer.begin("engine.epoch", epoch=epoch)

    def on_batch_begin(self, engine, epoch, batch_index, phase):
        self._batch = self.tracer.begin(
            "engine.batch",
            phase=phase_tag(phase),
            epoch=epoch,
            batch=batch_index,
        )

    def on_batch_end(self, engine, epoch, batch_index, result):
        tr = self.tracer
        if self._batch is not None and result is not None:
            loss = getattr(result, "loss", None)
            if loss is not None:
                self._batch.args["loss"] = float(loss)
        tr.end(self._batch)
        self._batch = None

    def on_epoch_end(self, engine, epoch, logs):
        self.tracer.end(self._epoch)
        self._epoch = None

    def on_fit_end(self, engine):
        self.tracer.end(self._fit)
        self._fit = None


class MetricsCallback:
    """Attach the engine's count owners to the metrics registry.

    At fit begin (or on an explicit :meth:`attach`) everything the
    engine reaches that has a callable ``metrics`` is handed to
    :meth:`MetricsRegistry.attach <repro.obs.metrics.MetricsRegistry.attach>`:
    the callbacks, the distinct strategies and their ``comm`` ledgers,
    the backend (through a ``ProfilingBackend``'s ``inner``), its
    workspace pool and fold caches (labelled ``pass_name``), and the
    schedule.  Nothing is copied: the registry asks each owner when a
    snapshot is taken.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else _default_registry()

    # -- Callback protocol (duck-typed) ---------------------------------
    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass

    def on_fit_begin(self, engine, epochs):
        self.attach(engine)

    def on_epoch_begin(self, engine, epoch):
        pass

    def on_batch_begin(self, engine, epoch, batch_index, phase):
        pass

    def on_batch_end(self, engine, epoch, batch_index, result):
        pass

    def on_epoch_end(self, engine, epoch, logs):
        pass

    def on_fit_end(self, engine):
        pass

    # -- attaching ------------------------------------------------------
    def attach(self, engine) -> None:
        """Attach every count owner ``engine`` reaches right now."""

        def offer(owner, **labels) -> None:
            if callable(getattr(owner, "metrics", None)):
                self.registry.attach(owner, **labels)

        for callback in engine.callbacks:
            offer(callback)
        for strategy in engine.strategies.values():
            offer(strategy)
            offer(getattr(strategy, "comm", None))
        backend = getattr(engine.backend, "inner", engine.backend)
        offer(backend)
        offer(getattr(backend, "pool", None))
        pipeline = backend.fold_pipeline() if backend is not None else None
        for fold in getattr(pipeline, "passes", ()):
            offer(getattr(fold, "cache", None), pass_name=fold.name)
        offer(engine.schedule)
