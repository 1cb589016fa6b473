"""``ddp_engine``: the data-parallel engine factory + worker bootstrap.

``ddp_engine(model, loss_fn, workers=2, codec="adacomp",
transport="process")`` builds the usual serial engine (``inner="adagp"``
→ :func:`~repro.core.engine.factories.adagp_engine`, ``inner="bp"`` →
:func:`~repro.core.engine.factories.bp_engine`) and takes over its
per-phase strategies with one
:class:`~repro.dist.strategy.DataParallelStrategy`.  The returned object
is a plain :class:`~repro.core.engine.TrainingEngine` — fit loop,
callbacks, checkpointing and History all unchanged, all rank-0-only:

* **Checkpointing is rank-0-only by construction** — only the driver
  has a fit loop, so an attached
  :class:`~repro.core.engine.events.Checkpointing` callback fires once
  per world, and because the data-parallel strategy keeps its comm
  state off the engine, the checkpoint bytes equal the serial engine's.
* **History is the cross-worker aggregate** — every epoch row's
  loss/metric/predictor errors are shard-weighted merges over all ranks
  (see ``DataParallelStrategy._merge_results``); per-epoch comm bytes
  and the measured compression ratio live in
  ``dp_strategy(engine).comm``.
* **Replicas are built by a picklable factory** from one pickled
  payload (model + loss_fn + the same scalar kwargs), identically under
  ``LocalTransport`` and ``ProcessTransport``, then receive rank 0's
  full sync state before the first batch — construction-path symmetry
  is what makes the transport-parity gate bitwise.

Resume: replicas are not checkpointed — the trajectory is a function
of rank-0 state alone (replica drift is always re-broadcast away at
phase boundaries before it can matter), so a checkpoint of the driver
is a checkpoint of the world.  After ``engine.load_checkpoint(...)``
call ``invalidate_replicas(engine)`` so the next batch re-broadcasts
rank-0 state; with the identity codec the resumed trajectory is then
bitwise identical to the uninterrupted run.  AdaComp residuals are the
one exception — rank-local, ephemeral across resume (documented
lossy-codec caveat).
"""

from __future__ import annotations

import functools
import pickle
from typing import Iterable, Optional

from ..core.engine.engine import MetricFn, TrainingEngine
from ..core.engine.events import Callback
from ..core.engine.factories import adagp_engine, bp_engine
from .codec import resolve_codec
from .strategy import DataParallelStrategy
from .worker import DistWorker

_INNER_FACTORIES = {"adagp": adagp_engine, "bp": bp_engine}

#: Engine kwargs that carry live objects a worker process cannot share.
#: Replicas must *build* their own copies from scalar knobs, so passing
#: pre-built instances alongside ``workers > 1`` is rejected up front.
_OBJECT_KWARGS = ("optimizer", "predictor", "gp_optimizer")

#: Kwargs that only the driver's fit loop consumes: replicas receive
#: phases over the wire, never consult a schedule, and never evaluate,
#: so these stay out of the replica payload (and may be live objects).
_DRIVER_ONLY_KWARGS = ("schedule",)


def _build_worker(payload: bytes, rank: int) -> DistWorker:
    """Worker-rank bootstrap: unpickle the shared payload, rebuild the
    replica engine through the same factory the driver used, spawn a
    rank-local codec.  Module-level so ``functools.partial(_build_worker,
    payload)`` pickles cleanly into a child process."""
    spec = pickle.loads(payload)
    factory = _INNER_FACTORIES[spec["inner"]]
    engine = factory(spec["model"], spec["loss_fn"], **spec["kwargs"])
    return DistWorker(
        engine, spec["codec"].spawn(), rank=rank, world_size=spec["world_size"]
    )


def ddp_engine(
    model,
    loss_fn,
    workers: int = 2,
    codec="identity",
    transport="local",
    inner: str = "adagp",
    metric_fn: Optional[MetricFn] = None,
    callbacks: Iterable[Callback] = (),
    min_workers: int = 2,
    **inner_kwargs,
) -> TrainingEngine:
    """Data-parallel training engine over ``workers`` ranks.

    ``inner`` selects the serial engine being distributed (``"adagp"``
    or ``"bp"``); every extra keyword argument flows to that factory on
    the driver *and* on every replica — which is why object-valued
    kwargs (``optimizer=``, ``predictor=``, ``gp_optimizer=``,
    ``schedule=``) are rejected for ``workers > 1``: pass scalar knobs
    (``lr=``, ``predictor_lr=``, ...) and let each rank build its own.
    ``metric_fn``, ``callbacks`` and the phase schedule stay driver-only
    (replicas never evaluate or run a fit loop).

    ``workers=1`` wires no transport at all and delegates every batch to
    the inner strategies — bitwise identical to the serial factory's
    engine, the cheap end of the parity ladder.

    Fault tolerance: whatever ``transport`` resolves to is wrapped in a
    :class:`~repro.dist.reliable.ReliableTransport` (dedup, retry,
    rebuild + replay — exactly-once collects); to tune it pass one, e.g.
    ``transport=ReliableTransport("process", max_rebuilds=1)``.
    ``min_workers=`` is the active-world floor below which the strategy
    degrades to serial with a warning instead of aborting.
    """
    if inner not in _INNER_FACTORIES:
        raise ValueError(
            f"unknown inner engine {inner!r}; expected one of "
            f"{sorted(_INNER_FACTORIES)}"
        )
    factory = _INNER_FACTORIES[inner]
    base_codec = resolve_codec(codec)
    worker_factory = None
    if workers > 1:
        rejected = [key for key in _OBJECT_KWARGS if inner_kwargs.get(key) is not None]
        if rejected:
            raise ValueError(
                f"ddp_engine(workers={workers}) cannot replicate object-valued "
                f"kwargs {rejected}; use scalar knobs (lr=, predictor_lr=, ...) "
                "so every rank builds its own instances"
            )
        backend = inner_kwargs.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise ValueError(
                "ddp_engine(workers > 1) needs the backend by name (str) so "
                "worker processes can resolve their own instance"
            )
        replica_kwargs = {
            key: value
            for key, value in inner_kwargs.items()
            if key not in _DRIVER_ONLY_KWARGS
        }
        payload = pickle.dumps(
            {
                "inner": inner,
                "model": model,
                "loss_fn": loss_fn,
                "kwargs": replica_kwargs,
                "codec": base_codec.spawn(),
                "world_size": workers,
            }
        )
        worker_factory = functools.partial(_build_worker, payload)
    engine = factory(
        model, loss_fn, metric_fn=metric_fn, callbacks=callbacks, **inner_kwargs
    )
    parallel = DataParallelStrategy(
        inner=engine.strategies,
        workers=workers,
        codec=base_codec,
        transport=transport,
        worker_factory=worker_factory,
        min_workers=min_workers,
    )
    engine.strategies = {phase: parallel for phase in engine.strategies}
    parallel.bind(engine)
    return engine


def dp_strategy(engine: TrainingEngine) -> DataParallelStrategy:
    """The engine's :class:`DataParallelStrategy` (comm stats, transport,
    ``close``); raises if ``engine`` was not built by :func:`ddp_engine`."""
    for strategy in engine.strategies.values():
        if isinstance(strategy, DataParallelStrategy):
            return strategy
    raise TypeError("engine has no DataParallelStrategy; build it with ddp_engine")


def invalidate_replicas(engine: TrainingEngine) -> None:
    """Mark every replica stale so the next batch re-broadcasts rank-0
    state — required after ``engine.load_checkpoint``."""
    dp_strategy(engine).invalidate_replicas()


def shutdown(engine: TrainingEngine) -> None:
    """Close the engine's transport and worker ranks; idempotent."""
    dp_strategy(engine).close()
