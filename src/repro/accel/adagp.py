"""End-to-end accelerator cost model for baseline BP and the three ADA-GP
hardware designs (paper §4.2, Fig 14; evaluated in §6.2-§6.3, §6.6.2).

Design differences:

* **ADA-GP-MAX** — dedicated predictor PE array + predictor memory: the
  predictor's forward (and its training during Phase BP) overlaps the
  next layer's computation on the main array; only non-hideable spill
  remains on the critical path.
* **ADA-GP-Efficient** — dedicated predictor memory only: predictor work
  serializes after each layer (cost ``alpha`` per layer in FW, ``2*alpha``
  in BW), but its weights never touch DRAM.
* **ADA-GP-LOW** — no extra hardware: in addition to serializing, every
  predictor use streams that layer's (masked) predictor weights from
  DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from ..core.schedule import HeuristicSchedule, Phase, phase_counts
from ..models.specs import LayerSpec, ModelSpec
from .config import AcceleratorConfig, AdaGPDesign
from .dataflow import layer_backward_cycles, layer_forward_cycles
from .memory import (
    Traffic,
    layer_backward_traffic,
    layer_forward_traffic,
    layer_gp_update_traffic,
)
from .predictor_cost import (
    gradient_row_of,
    predictor_layer_cost,
    predictor_load_cycles,
)


@dataclass(frozen=True)
class BatchCost:
    """Cycles + traffic for processing one batch (or an aggregate)."""

    cycles: int = 0
    traffic: Traffic = field(default_factory=Traffic)

    def __add__(self, other: "BatchCost") -> "BatchCost":
        return BatchCost(
            cycles=self.cycles + other.cycles, traffic=self.traffic + other.traffic
        )

    def scaled(self, factor: int) -> "BatchCost":
        return BatchCost(
            cycles=self.cycles * factor, traffic=self.traffic.scaled(factor)
        )


@dataclass(frozen=True)
class LayerCost:
    """One row of the cycle table: a layer's per-batch cost on one design.

    ``alpha_fw`` / ``alpha_bw`` are the predictor's forward and training
    cycles with LOW's per-use weight streaming folded in; both are 0 for
    a layer ADA-GP does not predict and for every layer of the baseline.
    """

    spec: LayerSpec
    fw: int
    bw: int
    bp_traffic: Traffic  # FW + BW (+ predictor forward and training)
    gp_traffic: Traffic  # FW (+ predictor forward and in-place update)
    alpha_fw: int = 0
    alpha_bw: int = 0


@dataclass(frozen=True)
class LayerPhaseCost:
    """Per-layer cycle breakdown used by the Fig 16 characterization."""

    name: str
    baseline: int  # FW + BW, plain backprop
    warmup: int  # FW + BW + predictor training overhead
    phase_bp: int  # same structure as warmup
    phase_gp: int  # FW + predictor inference overhead


class AcceleratorModel:
    """Costs a full training run of one model spec on the accelerator.

    :meth:`layer_costs` is the one walk over a model's layers; every
    batch cost is a fold over its rows and every run cost is
    :meth:`training_cost` of a phase mix.  ``design=None`` throughout
    means no predictor: the plain-BP baseline.
    """

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or AcceleratorConfig()

    def layer_costs(
        self, model: ModelSpec, batch: int, design: AdaGPDesign | None
    ) -> list[LayerCost]:
        """The cycle table: one :class:`LayerCost` per layer, in order."""
        config = self.config
        rows = []
        for spec in model.layers:
            fw_traffic = layer_forward_traffic(spec, batch, config)
            row = LayerCost(
                spec=spec,
                fw=layer_forward_cycles(spec, batch, config),
                bw=layer_backward_cycles(spec, batch, config),
                bp_traffic=fw_traffic + layer_backward_traffic(spec, batch, config),
                gp_traffic=fw_traffic,
            )
            if design is not None and spec.is_predictable:
                # Efficient/MAX keep predictor weights on chip; LOW streams
                # them from DRAM before every predictor use.
                on_chip = design != AdaGPDesign.LOW
                pcost = predictor_layer_cost(spec, config, on_chip)
                load = 0 if on_chip else predictor_load_cycles(
                    gradient_row_of(spec), config
                )
                row = replace(
                    row,
                    alpha_fw=pcost.alpha_fw + load,
                    alpha_bw=pcost.alpha_bw + load,
                    bp_traffic=row.bp_traffic + pcost.fw_traffic + pcost.train_traffic,
                    gp_traffic=row.gp_traffic
                    + pcost.fw_traffic
                    + layer_gp_update_traffic(spec, batch, config),
                )
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # Batch costs: folds over the table.
    # ------------------------------------------------------------------
    def phase_bp_batch(
        self, model: ModelSpec, batch: int, design: AdaGPDesign | None
    ) -> BatchCost:
        """Phase BP (and Warm Up): backprop + predictor training;
        ``design=None`` is one batch of plain backprop (the baseline)."""
        rows = self.layer_costs(model, batch, design)
        fw = _pass_cycles(design, [r.fw for r in rows], [r.alpha_fw for r in rows])
        back = rows[::-1]  # backward runs last layer -> first
        bw = _pass_cycles(design, [r.bw for r in back], [r.alpha_bw for r in back])
        return BatchCost(fw + bw, sum((r.bp_traffic for r in rows), Traffic()))

    def phase_gp_batch(
        self, model: ModelSpec, batch: int, design: AdaGPDesign
    ) -> BatchCost:
        """Phase GP: forward-only with in-flight predicted weight updates."""
        rows = self.layer_costs(model, batch, design)
        fw = _pass_cycles(design, [r.fw for r in rows], [r.alpha_fw for r in rows])
        return BatchCost(fw, sum((r.gp_traffic for r in rows), Traffic()))

    # ------------------------------------------------------------------
    # Training-run aggregation: the one weighting.
    # ------------------------------------------------------------------
    def training_cost(
        self,
        model: ModelSpec,
        design: AdaGPDesign | None,
        counts: Mapping[Phase, int],
        batch: int = 32,
    ) -> BatchCost:
        """Cost of a phase mix: ``counts`` maps :class:`Phase` to batches.

        ``counts`` is :func:`~repro.core.schedule.phase_counts` of a
        schedule or the realized mix a run's History recorded.  The
        baseline (``design=None``) runs every batch as backprop.
        """
        true_grad = counts.get(Phase.WARMUP, 0) + counts.get(Phase.BP, 0)
        gp = counts.get(Phase.GP, 0)
        if true_grad + gp == 0:
            raise ValueError(f"empty phase mix {dict(counts)}: no batches to cost")
        bp_cost = self.phase_bp_batch(model, batch, design)
        gp_cost = bp_cost if design is None else self.phase_gp_batch(model, batch, design)
        return bp_cost.scaled(true_grad) + gp_cost.scaled(gp)

    def speedup(
        self,
        model: ModelSpec,
        design: AdaGPDesign,
        schedule: HeuristicSchedule | None = None,
        epochs: int = 90,
        batches_per_epoch: int = 100,
        batch: int = 32,
    ) -> float:
        """End-to-end training speedup of a design over the BP baseline."""
        counts = phase_counts(schedule or HeuristicSchedule(), epochs, batches_per_epoch)
        base = self.training_cost(model, None, counts, batch)
        return base.cycles / self.training_cost(model, design, counts, batch).cycles

    # ------------------------------------------------------------------
    # Characterization (Fig 16).
    # ------------------------------------------------------------------
    def layer_characterization(
        self,
        model: ModelSpec,
        design: AdaGPDesign,
        batch: int = 32,
    ) -> list[LayerPhaseCost]:
        """Per-layer cycle breakdown across training phases.

        Only compute layers are listed (pool/act layers are negligible);
        the serialized (Efficient/LOW) composition is reported per layer
        since overlap makes per-layer attribution ambiguous for MAX.
        """
        results = []
        for r in self.layer_costs(model, batch, design):
            if r.spec.is_compute:
                bp = r.fw + r.bw + r.alpha_fw + r.alpha_bw
                results.append(
                    LayerPhaseCost(
                        r.spec.name, r.fw + r.bw, bp, bp, r.fw + r.alpha_fw
                    )
                )
        return results


def _pass_cycles(
    design: AdaGPDesign | None, main_cycles: list[int], aux_cycles: list[int]
) -> int:
    """One pass's cycles, lists in execution order: MAX overlaps each
    layer's aux (predictor) work with the next layer the main array
    runs; every other design serializes it."""
    if design == AdaGPDesign.MAX:
        return _overlapped(main_cycles, aux_cycles)
    return sum(main_cycles) + sum(aux_cycles)


def _overlapped(main_cycles: list[int], aux_cycles: list[int]) -> int:
    """Critical path when layer i's aux work overlaps layer i+1 (MAX).

    The auxiliary (predictor) unit processes layer i's activations while
    the main array runs layer i+1; a long aux task stalls the next layer
    ("we must still determine the maximum between the original and
    predictor models", §6.3).
    """
    if len(main_cycles) != len(aux_cycles):
        raise ValueError("main and aux cycle lists must align")
    total = 0
    pending_aux = 0  # aux work issued by the previous layer
    for main, aux in zip(main_cycles, aux_cycles):
        total += max(main, pending_aux)
        pending_aux = aux
    total += pending_aux  # drain the last layer's aux work
    return total
