"""Memory-access energy model (paper §6.6.2, Fig 21).

The paper compares *memory-access* energy ("the presented results ...
only reflect the savings from reducing the number of memory read/write
operations") using CACTI-derived access energies.  CACTI is unavailable
offline, so this model uses representative per-byte access energies in
line with published 32nm-45nm numbers; they are calibration constants —
the claim under test is the *relative* saving (paper: 34% average), not
absolute joules.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.schedule import HeuristicSchedule, phase_counts
from ..models.specs import ModelSpec
from .adagp import AcceleratorModel
from .config import AdaGPDesign
from .memory import Traffic

# Per-byte access energies (picojoules). DRAM ~50 pJ/B and large on-chip
# SRAM ~1 pJ/B are mid-range literature values for 16-bit datapaths.
DRAM_PJ_PER_BYTE: float = 50.0
SRAM_PJ_PER_BYTE: float = 1.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules split by memory level."""

    dram_joules: float
    sram_joules: float

    @property
    def total_joules(self) -> float:
        return self.dram_joules + self.sram_joules


def traffic_energy(
    traffic: Traffic,
    dram_pj_per_byte: float = DRAM_PJ_PER_BYTE,
    sram_pj_per_byte: float = SRAM_PJ_PER_BYTE,
) -> EnergyBreakdown:
    """Convert byte counts into joules."""
    return EnergyBreakdown(
        dram_joules=traffic.dram_total * dram_pj_per_byte * 1e-12,
        sram_joules=traffic.sram * sram_pj_per_byte * 1e-12,
    )


def training_energy(
    model: ModelSpec,
    design: AdaGPDesign | None,
    accelerator: AcceleratorModel | None = None,
    schedule: HeuristicSchedule | None = None,
    epochs: int = 90,
    batches_per_epoch: int = 1000,
    batch: int = 32,
) -> EnergyBreakdown:
    """Memory-access energy of a full training run.

    ``design=None`` gives the BP baseline; otherwise the selected ADA-GP
    design under the phase schedule.
    """
    accelerator = accelerator or AcceleratorModel()
    counts = phase_counts(schedule or HeuristicSchedule(), epochs, batches_per_epoch)
    return traffic_energy(accelerator.training_cost(model, design, counts, batch).traffic)
