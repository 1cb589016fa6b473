"""Fig 21: memory-access energy of baseline-WS vs ADA-GP designs.

Paper: ADA-GP reduces memory-access energy by ~34% on average across the
13 ImageNet models, because Phase-GP batches never re-load weights and
activations from off-chip memory for a backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel import AcceleratorModel, AdaGPDesign, training_energy
from ..core import HeuristicSchedule
from ..models import CLASSIFICATION_MODELS, spec_for
from .formats import format_table, geometric_mean


@dataclass
class Fig21Row:
    model: str
    baseline_mj: float  # total memory energy, megajoules
    efficient_mj: float
    max_mj: float

    @property
    def efficient_saving(self) -> float:
        return 1.0 - self.efficient_mj / self.baseline_mj


def run_fig21(
    dataset: str = "ImageNet",
    models: list[str] | None = None,
    epochs: int = 90,
    batches_per_epoch: int = 40000,  # ImageNet: ~1.28M images / batch 32
    batch: int = 32,
) -> list[Fig21Row]:
    models = models or CLASSIFICATION_MODELS
    accelerator = AcceleratorModel()
    schedule = HeuristicSchedule()
    rows = []
    for model_name in models:
        spec = spec_for(model_name, dataset)
        base = training_energy(
            spec, None, accelerator, schedule, epochs, batches_per_epoch, batch
        )
        eff = training_energy(
            spec, AdaGPDesign.EFFICIENT, accelerator, schedule, epochs,
            batches_per_epoch, batch,
        )
        max_ = training_energy(
            spec, AdaGPDesign.MAX, accelerator, schedule, epochs,
            batches_per_epoch, batch,
        )
        rows.append(
            Fig21Row(
                model=model_name,
                baseline_mj=base.total_joules / 1e6,
                efficient_mj=eff.total_joules / 1e6,
                max_mj=max_.total_joules / 1e6,
            )
        )
    return rows


def format_fig21(rows: list[Fig21Row]) -> str:
    table_rows = [
        [
            r.model,
            f"{r.baseline_mj:.3f}",
            f"{r.efficient_mj:.3f}",
            f"{r.max_mj:.3f}",
            f"{r.efficient_saving:.1%}",
        ]
        for r in rows
    ]
    mean_saving = 1.0 - geometric_mean(
        [r.efficient_mj / r.baseline_mj for r in rows]
    )
    table_rows.append(["Geomean saving", "", "", "", f"{mean_saving:.1%}"])
    return format_table(
        ["Model", "Baseline-WS (MJ)", "Efficient (MJ)", "MAX (MJ)", "Saving"],
        table_rows,
        title="Fig 21: memory-access energy over full training (x1e6 J)",
    )


def main() -> None:  # pragma: no cover
    print(format_fig21(run_fig21()))


if __name__ == "__main__":  # pragma: no cover
    main()
