"""Reproduction of ADA-GP (MICRO 2023): Accelerating DNN Training By
Adaptive Gradient Prediction.

Package map
-----------
``repro.nn``          From-scratch NumPy DNN framework (layers, losses,
                      optimizers, LR schedulers) with per-layer
                      forward/backward — the training substrate.
``repro.models``      Trainable mini model zoo + full-size layer specs
                      of the paper's 15 networks.
``repro.data``        Synthetic classification / translation / detection
                      datasets (offline stand-ins, DESIGN.md §2).
``repro.core``        The paper's contribution: gradient predictor,
                      tensor reorganization, phase schedules, and the
                      one ``TrainingEngine`` (phase strategies +
                      callbacks) that the ``bp_engine`` / ``adagp_engine``
                      / ``pipeline_adagp_engine`` factories wire for each
                      scheme.
``repro.accel``       Systolic accelerator simulator: cycles under four
                      dataflows, DRAM/SRAM traffic, energy, FPGA/ASIC
                      area & power.
``repro.pipeline``    GPipe / DAPPLE / Chimera pipeline schedules with
                      ADA-GP overlays.
``repro.experiments`` One module per paper table/figure; see
                      ``python -m repro.experiments.runner``.
``repro.tune``        Parallel schedule search over the engine: grid
                      search spaces, trial runner (process pool + resume
                      journal), Pareto frontier of accuracy vs. GP
                      share / cycle-model speedup.
``repro.dist``        Data-parallel training: swappable transports
                      (in-process / multiprocessing), gradient codecs
                      (identity, AdaComp adaptive residual
                      compression), and the ``ddp_engine`` factory —
                      GP phases ship zero gradient bytes.
``repro.obs``         Phase-aware observability: span tracer (JSONL /
                      Chrome trace exporters), metrics registry with
                      cross-rank merge, engine callbacks, sampling
                      per-op backend profiler, ``python -m repro.obs
                      report`` phase×op breakdowns.
"""

from . import accel, core, data, dist, experiments, models, nn, obs, pipeline, tune
from .accel import AcceleratorConfig, AcceleratorModel, AdaGPDesign, DataflowKind
from .core import (
    AdaptiveSchedule,
    GradientPredictor,
    HeuristicSchedule,
    Phase,
    TrainingEngine,
    adagp_engine,
    bp_engine,
)
from .dist import ddp_engine
from .models import build_mini, spec_for
from .pipeline import PipelineConfig, PipelineKind, pipeline_speedup

__version__ = "1.0.0"

__all__ = [
    "accel",
    "core",
    "data",
    "dist",
    "experiments",
    "models",
    "nn",
    "obs",
    "pipeline",
    "tune",
    "AcceleratorConfig",
    "AcceleratorModel",
    "AdaGPDesign",
    "DataflowKind",
    "AdaptiveSchedule",
    "GradientPredictor",
    "HeuristicSchedule",
    "Phase",
    "TrainingEngine",
    "bp_engine",
    "adagp_engine",
    "ddp_engine",
    "build_mini",
    "spec_for",
    "PipelineConfig",
    "PipelineKind",
    "pipeline_speedup",
    "__version__",
]
