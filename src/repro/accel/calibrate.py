"""Backend-aware calibration of the cycle model against measured ops.

``benchmarks/bench_engine.py`` measures a fixed set of tensor ops on the
software backends and records them in ``BENCH_engine.json``.  This
module maps those measured timings onto the analytical cycle model of
:mod:`repro.accel.dataflow`: each benchmarked op has a known GEMM (or
SIMD) shape, so the model predicts a cycle count for it, and dividing
cycles by measured seconds yields the *implied clock frequency* at which
the modeled accelerator would match this machine's software throughput
on that op.

The per-op spread of implied frequencies is the calibration signal:

* ops whose implied MHz sits *above* the aggregate run faster in
  software than the model's relative costing expects (e.g. BLAS-saturated
  GEMMs), ops *below* run slower (e.g. reduction-bound moments);
* the aggregate (median) implied frequency turns any measured-time
  experiment into model cycles and back —
  :func:`calibrated_config` bakes it into an
  :class:`~repro.accel.config.AcceleratorConfig` so Fig 17-19 style
  analytical speedups can be reported against *this* machine's measured
  baseline instead of the paper's nominal 200 MHz.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from .config import AcceleratorConfig
from .dataflow import _ceil_div, gemm_cycles

#: GEMM/SIMD shapes of the ops ``benchmarks/bench_engine.py`` times in
#: its ``_op_microbench`` (keep in sync).  Convs are costed as their
#: im2col GEMM: M = out_channels, K = in_channels * k^2,
#: N = batch * out_h * out_w.
_BENCH_BATCH = 16
_CONV_SPATIAL = 16 * 16  # stride-1, padded: out spatial == in spatial


def _conv3x3_cycles(config: AcceleratorConfig) -> int:
    n = _BENCH_BATCH * _CONV_SPATIAL
    fwd = gemm_cycles(32, 32 * 9, n, config)
    # Backward = dX GEMM + dW GEMM (layer_backward_cycles convention).
    dx = gemm_cycles(32 * 9, 32, n, config)
    dw = gemm_cycles(32, n, 32 * 9, config)
    return fwd + dx + dw


def _conv1x1_cycles(config: AcceleratorConfig) -> int:
    return gemm_cycles(64, 32, _BENCH_BATCH * _CONV_SPATIAL, config)


def _linear_cycles(config: AcceleratorConfig) -> int:
    return gemm_cycles(128, 512, 256, config)


def _attn_scores_cycles(config: AcceleratorConfig) -> int:
    # (8, 4) batched heads of a (64, 32) @ (32, 64) GEMM.
    return 8 * 4 * gemm_cycles(64, 32, 64, config)


def _bn_moments_cycles(config: AcceleratorConfig) -> int:
    # Two-pass mean/var over (16, 64, 16, 16) on the SIMD path: one
    # cycle per element per pass across the array width.
    elements = 16 * 64 * 16 * 16
    return 2 * _ceil_div(elements, config.num_pes)


OP_CYCLE_MODELS: dict[str, Callable[[AcceleratorConfig], int]] = {
    "conv3x3_fwd_bwd": _conv3x3_cycles,
    "conv1x1_fwd": _conv1x1_cycles,
    "linear_fwd": _linear_cycles,
    "attn_scores": _attn_scores_cycles,
    "bn_moments": _bn_moments_cycles,
}


@dataclass(frozen=True)
class OpCalibration:
    """One benchmarked op mapped onto the cycle model."""

    op: str
    measured_ms: float
    model_cycles: int
    implied_mhz: float

    @classmethod
    def from_timing(
        cls, op: str, measured_ms: float, config: AcceleratorConfig
    ) -> "OpCalibration":
        if measured_ms <= 0:
            raise ValueError(f"measured_ms must be positive, got {measured_ms}")
        cycles = OP_CYCLE_MODELS[op](config)
        return cls(
            op=op,
            measured_ms=measured_ms,
            model_cycles=cycles,
            implied_mhz=cycles / (measured_ms * 1e3),
        )


@dataclass(frozen=True)
class CalibrationReport:
    """Cycle-model calibration of one backend's measured op table."""

    backend: str
    ops: tuple[OpCalibration, ...]

    @property
    def implied_mhz(self) -> float:
        """Aggregate (median) implied frequency across ops."""
        values = sorted(op.implied_mhz for op in self.ops)
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    def cost_scale(self) -> dict[str, float]:
        """Per-op cost multiplier relative to the aggregate frequency.

        ``> 1`` marks an op the software runs *slower* (relative to the
        model's costing) than the aggregate, i.e. where the cycle model
        undercharges this backend; ``< 1`` marks ops it overcharges.
        Multiplying the model's per-op cycles by these factors reweights
        it to this machine's measured profile.
        """
        aggregate = self.implied_mhz
        return {op.op: aggregate / op.implied_mhz for op in self.ops}

    def seconds_for_cycles(self, cycles: int) -> float:
        """Wall seconds this machine needs for ``cycles`` model cycles."""
        return cycles / (self.implied_mhz * 1e6)


def calibrate(
    op_timings: Mapping[str, Mapping[str, float]],
    config: Optional[AcceleratorConfig] = None,
    backend: str = "fused",
) -> CalibrationReport:
    """Calibrate the cycle model from a measured op-timing table.

    ``op_timings`` is the ``ops`` section of ``BENCH_engine.json``'s
    ``fused_gate`` record: ``{op: {"numpy_ms": .., "fused_ms": ..}}``.
    ``backend`` picks which column to calibrate against.  Ops without a
    cycle model (or models without a measured op) are skipped, so the
    table and the model can evolve independently.
    """
    config = config if config is not None else AcceleratorConfig()
    column = f"{backend}_ms"
    ops = []
    for op, timing in sorted(op_timings.items()):
        if op not in OP_CYCLE_MODELS or column not in timing:
            continue
        ops.append(OpCalibration.from_timing(op, float(timing[column]), config))
    if not ops:
        raise ValueError(
            f"no calibratable ops for backend {backend!r}; measured "
            f"{sorted(op_timings)}, modeled {sorted(OP_CYCLE_MODELS)}"
        )
    return CalibrationReport(backend=backend, ops=tuple(ops))


def calibrate_from_bench(
    path: Union[str, Path],
    config: Optional[AcceleratorConfig] = None,
    backend: str = "fused",
) -> CalibrationReport:
    """Calibrate from a ``BENCH_engine.json`` file on disk."""
    data = json.loads(Path(path).read_text())
    try:
        op_timings = data["fused_gate"]["ops"]
    except KeyError as err:
        raise ValueError(
            f"{path} has no fused_gate.ops section; run "
            "benchmarks/bench_engine.py first"
        ) from err
    return calibrate(op_timings, config=config, backend=backend)


def calibrated_config(
    report: CalibrationReport,
    config: Optional[AcceleratorConfig] = None,
) -> AcceleratorConfig:
    """Copy of ``config`` clocked at the report's implied frequency.

    Analytical cycle counts divided by this config's frequency then
    approximate measured wall time on the calibration machine, which
    puts the Fig 17-19 analytical speedups and the measured benchmarks
    on one time axis.
    """
    config = config if config is not None else AcceleratorConfig()
    # dataclasses.replace, not a field-by-field copy: fields added to
    # AcceleratorConfig later keep their configured values instead of
    # silently resetting to defaults.
    return dataclasses.replace(config, frequency_mhz=report.implied_mhz)
