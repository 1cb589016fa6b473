"""Data-parallel training with phase-aware gradient compression.

ADA-GP's phase structure is a natural fit for data parallelism: GP
batches apply locally-predicted gradients and ship *nothing*, so all
gradient communication concentrates in BP phases — where AdaComp-style
adaptive residual compression (arXiv 1712.02679) shrinks it ~40–200×.
This package layers that story over the existing engine seams:

* :mod:`repro.dist.transport` — the comm substrate
  (:class:`LocalTransport` in-process, :class:`ProcessTransport` over
  ``multiprocessing``), named by ``"local"`` / ``"process"`` or passed
  as an instance;
* :mod:`repro.dist.codec` — gradient wire formats
  (:class:`IdentityCodec`, :class:`AdaCompCodec`) with measured
  ``wire_bytes``/``dense_bytes`` accounting;
* :mod:`repro.dist.reliable` — :class:`ReliableTransport`, the recovery
  wrapper (dedup, retry, rebuild + replay) every strategy talks through;
* :mod:`repro.dist.strategy` — :class:`DataParallelStrategy`, wrapping
  any serial :class:`~repro.core.engine.strategies.PhaseStrategy`;
* :mod:`repro.dist.engine` — the :func:`ddp_engine` factory.

Quickstart::

    from repro.dist import ddp_engine, dp_strategy, shutdown

    engine = ddp_engine(model, loss_fn, workers=2,
                        codec="adacomp", transport="process")
    engine.fit(train_batches, val_batches, epochs=30)
    print(dp_strategy(engine).comm.compression_ratio())
    shutdown(engine)
"""

from .codec import (
    AdaCompCodec,
    Codec,
    EncodedGrad,
    IdentityCodec,
    decode,
    decode_sum,
    resolve_codec,
)
from .engine import ddp_engine, dp_strategy, shutdown
from .faults import ChaosTransport, Fault, FaultEvent, corrupt_frame
from .reliable import DeterministicFault, RankLost, ReliableTransport
from .strategy import CommStats, DataParallelStrategy, shard_sizes
from .transport import (
    LocalTransport,
    PayloadCorrupt,
    ProcessTransport,
    Transport,
    TransportError,
    TransportWrapper,
    WorkerDied,
    WorkerError,
    WorkerTimeout,
    frame_payload,
    resolve_transport,
    unframe_payload,
)
from .worker import DistWorker, load_sync_state, state_nbytes, sync_state

__all__ = [
    "AdaCompCodec",
    "ChaosTransport",
    "Codec",
    "CommStats",
    "DataParallelStrategy",
    "DeterministicFault",
    "DistWorker",
    "EncodedGrad",
    "Fault",
    "FaultEvent",
    "IdentityCodec",
    "LocalTransport",
    "PayloadCorrupt",
    "ProcessTransport",
    "RankLost",
    "ReliableTransport",
    "Transport",
    "TransportError",
    "TransportWrapper",
    "WorkerDied",
    "WorkerError",
    "WorkerTimeout",
    "corrupt_frame",
    "ddp_engine",
    "decode",
    "decode_sum",
    "dp_strategy",
    "frame_payload",
    "load_sync_state",
    "resolve_codec",
    "resolve_transport",
    "shard_sizes",
    "shutdown",
    "state_nbytes",
    "sync_state",
]
