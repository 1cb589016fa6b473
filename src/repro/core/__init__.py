"""ADA-GP core: predictor, reorganization, schedules, and the training engine."""

from . import metrics, reorganize
from .history import History
from .predictor import GradientPredictor, PredictorNetwork
from .schedule import (
    AdaptiveSchedule,
    HeuristicSchedule,
    PAPER_FINAL_RATIO,
    PAPER_RATIO_LADDER,
    Phase,
    phase_counts,
    schedule_from_config,
)
from .engine import (
    BackpropStrategy,
    CheckpointCorrupt,
    BatchResult,
    Callback,
    CallbackList,
    Checkpointing,
    EarlyStopping,
    EpochStats,
    GradPredictStrategy,
    PhaseStrategy,
    PipelineGPStrategy,
    ThroughputTimer,
    TrainingEngine,
    adagp_engine,
    bp_engine,
    pipeline_adagp_engine,
)

__all__ = [
    "metrics",
    "reorganize",
    "History",
    "GradientPredictor",
    "PredictorNetwork",
    "AdaptiveSchedule",
    "HeuristicSchedule",
    "PAPER_FINAL_RATIO",
    "PAPER_RATIO_LADDER",
    "Phase",
    "phase_counts",
    "schedule_from_config",
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
    "CheckpointCorrupt",
    "ThroughputTimer",
    "bp_engine",
    "adagp_engine",
    "pipeline_adagp_engine",
]
