"""Pluggable training engine: one loop, phase strategies, callbacks.

See :mod:`repro.core.engine.engine` for the loop,
:mod:`repro.core.engine.strategies` for the per-batch phase strategies,
:mod:`repro.core.engine.events` for the callback system and
:mod:`repro.core.engine.factories` for the preconfigured BP / ADA-GP /
pipelined ADA-GP engines.
"""

from .checkpoint import (
    CheckpointCorrupt,
    engine_state,
    load_checkpoint,
    load_engine_state,
    save_checkpoint,
)
from .engine import EpochStats, TrainingEngine
from .events import (
    Callback,
    CallbackList,
    Checkpointing,
    EarlyStopping,
    ThroughputTimer,
)
from .factories import adagp_engine, bp_engine, pipeline_adagp_engine
from .strategies import (
    BackpropStrategy,
    BatchResult,
    GradPredictStrategy,
    PhaseStrategy,
    PipelineGPStrategy,
)

__all__ = [
    "TrainingEngine",
    "EpochStats",
    "PhaseStrategy",
    "BackpropStrategy",
    "GradPredictStrategy",
    "PipelineGPStrategy",
    "BatchResult",
    "Callback",
    "CallbackList",
    "EarlyStopping",
    "Checkpointing",
    "ThroughputTimer",
    "bp_engine",
    "adagp_engine",
    "pipeline_adagp_engine",
    "CheckpointCorrupt",
    "engine_state",
    "load_engine_state",
    "save_checkpoint",
    "load_checkpoint",
]
