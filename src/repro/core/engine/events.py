"""Event/callback system for the :class:`~repro.core.engine.TrainingEngine`.

The engine fires a fixed set of events while it runs the fit loop:

``on_fit_begin``    once, before the first epoch
``on_epoch_begin``  before each training epoch
``on_batch_begin``  before each training batch (phase already resolved)
``on_batch_end``    after each training batch (with its ``BatchResult``)
``on_epoch_end``    after validation, LR stepping and History recording
``on_fit_end``      once, after the last epoch (or an early stop)

Callbacks see each event in list order, except that every
:class:`Checkpointing` sees ``on_epoch_end`` after all the others, so a
checkpoint carries the state they leave behind.

Cross-cutting loop concerns — checkpointing, early stopping, throughput
measurement — are composable callbacks instead of copy-pasted loop code,
so every trainer (BP, ADA-GP, pipelined ADA-GP) gets them for free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ...obs.trace import tracer as _obs_tracer
from ..schedule import Phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import TrainingEngine
    from .strategies import BatchResult


class Callback:
    """Base class: override any subset of the event hooks.

    Callbacks with mutable state that must survive checkpoint/resume
    (patience counters, accumulated timings) override
    :meth:`state_dict` / :meth:`load_state_dict`; the engine saves and
    restores them positionally alongside its own state.
    """

    def state_dict(self) -> dict:
        """Resumable state; empty for stateless callbacks."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, value)

    def on_fit_begin(self, engine: "TrainingEngine", epochs: int) -> None:
        pass

    def on_epoch_begin(self, engine: "TrainingEngine", epoch: int) -> None:
        pass

    def on_batch_begin(
        self, engine: "TrainingEngine", epoch: int, batch_index: int, phase: Phase
    ) -> None:
        pass

    def on_batch_end(
        self,
        engine: "TrainingEngine",
        epoch: int,
        batch_index: int,
        result: "BatchResult",
    ) -> None:
        pass

    def on_epoch_end(self, engine: "TrainingEngine", epoch: int, logs: dict) -> None:
        pass

    def on_fit_end(self, engine: "TrainingEngine") -> None:
        pass


class CallbackList(Callback):
    """Fan one event out to an ordered list of callbacks."""

    def __init__(self, callbacks: Iterable[Callback] = ()) -> None:
        self.callbacks: list[Callback] = list(callbacks)

    def __iter__(self):
        return iter(self.callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    def on_fit_begin(self, engine, epochs):
        for callback in self.callbacks:
            callback.on_fit_begin(engine, epochs)

    def on_epoch_begin(self, engine, epoch):
        for callback in self.callbacks:
            callback.on_epoch_begin(engine, epoch)

    def on_batch_begin(self, engine, epoch, batch_index, phase):
        for callback in self.callbacks:
            callback.on_batch_begin(engine, epoch, batch_index, phase)

    def on_batch_end(self, engine, epoch, batch_index, result):
        for callback in self.callbacks:
            callback.on_batch_end(engine, epoch, batch_index, result)

    def on_epoch_end(self, engine, epoch, logs):
        ordered = sorted(self.callbacks, key=lambda cb: isinstance(cb, Checkpointing))
        for callback in ordered:
            callback.on_epoch_end(engine, epoch, logs)

    def on_fit_end(self, engine):
        for callback in self.callbacks:
            callback.on_fit_end(engine)


class EarlyStopping(Callback):
    """Stop the fit loop when a monitored loss stops going down.

    ``monitor`` names a loss in the epoch logs (``"val_loss"`` or
    ``"train_loss"``); an epoch improves when its value is strictly
    below the best so far.
    """

    def __init__(self, monitor: str = "val_loss", patience: int = 5) -> None:
        if not monitor.endswith("_loss"):
            raise ValueError(f"monitor must name a loss, got {monitor!r}")
        if patience < 0:
            raise ValueError(f"patience must be non-negative, got {patience}")
        self.monitor = monitor
        self.patience = patience
        self.best: Optional[float] = None
        self.num_bad_epochs = 0
        self.stopped_epoch: Optional[int] = None

    def state_dict(self) -> dict:
        return {
            "best": self.best,
            "num_bad_epochs": self.num_bad_epochs,
            "stopped_epoch": self.stopped_epoch,
        }

    def _is_better(self, value: float) -> bool:
        return self.best is None or value < self.best

    def on_fit_begin(self, engine, epochs):
        # Fresh runs reset the counters; a checkpoint-resumed fit
        # (current_epoch > 0) keeps the restored patience state so the
        # resumed run reproduces the uninterrupted one.
        if engine.current_epoch == 0:
            self.best = None
            self.num_bad_epochs = 0
            self.stopped_epoch = None

    def on_epoch_end(self, engine, epoch, logs):
        value = logs.get(self.monitor)
        if value is None:
            raise KeyError(f"EarlyStopping monitor {self.monitor!r} not in logs")
        if self._is_better(value):
            self.best = value
            self.num_bad_epochs = 0
            return
        self.num_bad_epochs += 1
        if self.num_bad_epochs > self.patience:
            self.stopped_epoch = epoch
            engine.request_stop()


class Checkpointing(Callback):
    """Save the full engine state after every epoch.

    ``path`` may contain ``{epoch}``, which formats to the 0-based epoch
    just finished; without it the same file is overwritten, giving a
    rolling "latest" checkpoint.  Restore with
    :meth:`TrainingEngine.load_checkpoint`, then keep calling ``fit`` for
    the remaining epochs — the resumed run reproduces the original
    History exactly, early stop included, wherever this callback sits
    in the list (see ``tests/core/test_engine.py``).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def on_epoch_end(self, engine, epoch, logs):
        engine.save_checkpoint(self.path.format(epoch=epoch))


class ThroughputTimer(Callback):
    """Measure training throughput (batches/second) per phase.

    The accelerator model predicts cycle-level speedups; this callback
    gives the software-level counterpart: Phase-GP batches skip the whole
    backward pass, so their measured rate should beat Phase-BP/warm-up
    batches even in NumPy (``benchmarks/bench_engine.py``).

    Under data-parallel training the timer runs on rank 0 (the only
    rank with a fit loop) and reduces worker counts instead of letting
    each process report its own wall time: ``batches`` counts *global*
    batches (one optimizer step each), while ``worker_batches``
    accumulates ``BatchResult.shard_batches`` — the number of worker
    shards that batch ran across the world.  ``batches_per_second`` is
    therefore never inflated by the worker count; the per-shard rate is
    the separate :meth:`worker_batches_per_second`.  (Before
    ``shard_batches`` existed, summing per-process timers over-counted
    multi-worker throughput by the world size.)

    Seconds are read from the installed tracer's clock
    (``repro.obs.tracer().clock``), so a counting fake installed with
    ``set_tracer`` makes them deterministic.
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.batches: dict[Phase, int] = {p: 0 for p in Phase}
        self.worker_batches: dict[Phase, int] = {p: 0 for p in Phase}
        self.seconds: dict[Phase, float] = {p: 0.0 for p in Phase}

    def state_dict(self) -> dict:
        return {
            "batches": dict(self.batches),
            "worker_batches": dict(self.worker_batches),
            "seconds": dict(self.seconds),
        }

    def on_batch_begin(self, engine, epoch, batch_index, phase):
        self._start = _obs_tracer().clock()

    def on_batch_end(self, engine, epoch, batch_index, result):
        if self._start is None:
            return
        elapsed = _obs_tracer().clock() - self._start
        self._start = None
        self.batches[result.phase] += 1
        self.worker_batches[result.phase] += getattr(result, "shard_batches", 1)
        self.seconds[result.phase] += elapsed

    def batches_per_second(self, phase: Phase) -> float:
        """Global batches (optimizer steps) per second of rank-0 wall
        time — the world-size-independent throughput number."""
        if self.seconds[phase] <= 0.0:
            return float("nan")
        return self.batches[phase] / self.seconds[phase]

    def worker_batches_per_second(self, phase: Phase) -> float:
        """Worker-shard batches per second (rank-0-reduced counts over
        rank-0 wall time); equals :meth:`batches_per_second` times the
        active world size under data parallelism."""
        if self.seconds[phase] <= 0.0:
            return float("nan")
        return self.worker_batches[phase] / self.seconds[phase]

    def snapshot(self) -> dict:
        """Per-phase throughput as plain data, the dict the experiment
        runner and the benchmark records read.  Phases with zero batches
        are omitted; rates are ``None`` (JSON-safe, unlike NaN) when no
        time accrued."""
        snap: dict[str, dict] = {}
        for phase, count in self.batches.items():
            if not count:
                continue
            seconds = self.seconds[phase]
            workers = self.worker_batches[phase]
            snap[phase.value] = {
                "batches": count,
                "worker_batches": workers,
                "seconds": seconds,
                "batches_per_second": (count / seconds) if seconds > 0 else None,
                "worker_batches_per_second": (
                    (workers / seconds) if seconds > 0 else None
                ),
            }
        return snap

    def summary(self) -> str:
        """Human-readable one-liner (logs and tests parse it: keep the
        format)."""
        parts = []
        for phase, count in self.batches.items():
            if not count:
                continue
            rate = self.batches_per_second(phase)
            part = f"{phase.value}: {rate:.2f} batches/s ({count} batches)"
            workers = self.worker_batches[phase]
            if workers != count:
                wrate = self.worker_batches_per_second(phase)
                part += f" [{workers} worker shards, {wrate:.2f}/s]"
            parts.append(part)
        return "throughput — " + ("; ".join(parts) if parts else "no batches")

    def metrics(self):
        """``repro_engine_{batches,worker_batches,phase_seconds}{phase}``
        rows, read by ``repro.obs`` whenever a snapshot is taken."""
        return [
            (f"repro_engine_{name}", "counter", value, {"phase": phase.value})
            for name, table in (
                ("batches", self.batches),
                ("worker_batches", self.worker_batches),
                ("phase_seconds", self.seconds),
            )
            for phase, value in table.items()
        ]
