"""ADA-GP speedups over multi-device pipeline baselines (Fig 20, §6.5).

Per-model forward/backward stage times come from the accelerator cycle
model (total FW / BW cycles split evenly over the devices — the paper's
balanced-partition assumption), and predictor overhead (alpha) per
device is folded into the ADA-GP stage times exactly as in the
single-chip analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel.adagp import AcceleratorModel
from ..accel.config import AdaGPDesign
from ..core.schedule import HeuristicSchedule
from ..models.specs import ModelSpec
from .schedules import (
    PipelineConfig,
    PipelineKind,
    batch_makespan,
    sequence_makespan,
    training_phase_sequence,
)


@dataclass(frozen=True)
class StageTimes:
    """Per-device, per-micro-batch stage durations (in cycles)."""

    tf: float
    tb: float
    alpha_fw: float
    alpha_bw: float


def model_stage_times(
    model: ModelSpec,
    accelerator: AcceleratorModel,
    config: PipelineConfig,
    design: AdaGPDesign,
    batch: int = 32,
) -> StageTimes:
    """Split a model's per-batch work evenly across pipeline devices.

    Micro-batches divide the batch: each device runs 1/S of the layers
    on 1/M of the samples per slot.
    """
    micro_batch = max(batch // config.micro_batches, 1)
    rows = accelerator.layer_costs(model, micro_batch, design)
    stages = config.num_stages
    return StageTimes(
        tf=sum(r.fw for r in rows) / stages,
        tb=sum(r.bw for r in rows) / stages,
        alpha_fw=sum(r.alpha_fw for r in rows) / stages,
        alpha_bw=sum(r.alpha_bw for r in rows) / stages,
    )


def pipeline_speedup(
    model: ModelSpec,
    kind: PipelineKind,
    design: AdaGPDesign,
    accelerator: AcceleratorModel | None = None,
    config: PipelineConfig | None = None,
    schedule: HeuristicSchedule | None = None,
    epochs: int = 90,
    batches_per_epoch: int = 20,
    batch: int = 32,
) -> float:
    """End-to-end training speedup of ADA-GP over a pipeline baseline."""
    accelerator = accelerator or AcceleratorModel()
    config = config or PipelineConfig()
    schedule = schedule or HeuristicSchedule()
    times = model_stage_times(model, accelerator, config, design, batch)
    phases = training_phase_sequence(schedule, epochs, batches_per_epoch)
    if not phases:
        raise ValueError(
            f"empty phase mix: {epochs} epochs x {batches_per_epoch} batches"
        )
    baseline = batch_makespan(kind, config, times.tf, times.tb) * len(phases)
    if design == AdaGPDesign.MAX:
        # Dedicated predictor array: alpha overlaps the next micro-batch
        # slot; only non-hideable spill (alpha exceeding a slot) remains.
        tf_bp = times.tf + max(0.0, times.alpha_fw - times.tf)
        tb_bp = times.tb + max(0.0, times.alpha_bw - times.tb)
        tf_gp = times.tf + max(0.0, times.alpha_fw - times.tf)
    else:
        tf_bp = times.tf + times.alpha_fw
        tb_bp = times.tb + times.alpha_bw
        tf_gp = times.tf + times.alpha_fw
    ada = sequence_makespan(kind, config, phases, tf_bp, tb_bp, tf_gp=tf_gp)
    return baseline / ada
