"""Stage partitioning of ``Sequential`` models for pipeline execution.

The paper's multi-device analysis (§3.7, Fig 20) assumes the model is
split into balanced stages, one per device.  This module produces that
split for *executable* models: every top-level layer of a
:class:`~repro.nn.layers.core.Sequential` is costed on the accelerator
cycle model (the same :func:`~repro.accel.dataflow.layer_forward_cycles`
/ :func:`~repro.accel.dataflow.layer_backward_cycles` used by the
analytical Fig 20), and a dynamic program picks the contiguous split
that minimizes the most expensive stage.

Costing real layers reuses the accel model by *probing*: one forward
pass with hooks records every module's output shape, from which each
``Conv2d``/``Linear`` is mapped to the :class:`~repro.models.specs.LayerSpec`
the cycle model understands; parameter-free layers are costed on the
SIMD post-processing path exactly like the analytical side does.

Stage sub-models share layer objects with the original model, so an
optimizer built over the original model's parameters keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..accel.config import AcceleratorConfig
from ..accel.dataflow import layer_backward_cycles, layer_forward_cycles
from ..models.specs import LayerKind, LayerSpec
from ..nn.layers.core import Conv2d, Linear, Sequential
from ..nn.module import Module, no_grad


@dataclass(frozen=True)
class StagePlan:
    """A contiguous split of a Sequential's top-level layers into stages."""

    boundaries: tuple[tuple[int, int], ...]  # [start, end) per stage
    layer_costs: tuple[float, ...]  # fw+bw cycles per top-level layer

    @property
    def num_stages(self) -> int:
        return len(self.boundaries)

    @property
    def stage_costs(self) -> tuple[float, ...]:
        return tuple(
            sum(self.layer_costs[start:end]) for start, end in self.boundaries
        )

    @property
    def balance(self) -> float:
        """Mean stage cost over max stage cost (1.0 = perfectly balanced)."""
        costs = self.stage_costs
        peak = max(costs)
        if peak <= 0:
            return 1.0
        return float(np.mean(costs) / peak)


def _spec_for_module(module: Module, output: np.ndarray) -> Optional[LayerSpec]:
    """Map an executed module + its observed output to a costable spec."""
    if isinstance(module, Conv2d) and output.ndim == 4:
        return LayerSpec(
            name=type(module).__name__,
            kind=LayerKind.CONV,
            in_channels=module.in_channels,
            out_channels=module.out_channels,
            kernel_size=module.kernel_size,
            stride=module.stride,
            padding=module.padding,
            out_h=output.shape[2],
            out_w=output.shape[3],
        )
    if isinstance(module, Linear):
        return LayerSpec(
            name=type(module).__name__,
            kind=LayerKind.LINEAR,
            in_channels=module.in_features,
            out_channels=module.out_features,
        )
    if next(module.children(), None) is None:
        # Parameter-free leaf (pool / norm / activation / flatten): SIMD
        # path, one cycle per output element per PE — matches how the
        # analytical model keeps these negligible against GEMM layers.
        if output.ndim == 4:
            channels, out_h, out_w = output.shape[1], output.shape[2], output.shape[3]
        else:
            channels, out_h, out_w = int(np.prod(output.shape[1:])), 1, 1
        return LayerSpec(
            name=type(module).__name__,
            kind=LayerKind.ACT,
            out_channels=channels,
            out_h=out_h,
            out_w=out_w,
        )
    return None  # containers: their leaves are costed individually


def probe_layer_costs(model: Sequential, input_shape: Sequence[int]) -> list[float]:
    """Accel-model cost (fw + bw cycles) of each top-level layer at
    batch 1 on the default :class:`~repro.accel.config.AcceleratorConfig`.

    Runs one probe forward with hooks on every sub-module — in eval
    mode, so BatchNorm running stats are untouched, and under
    ``no_grad()``, so no conv keeps a pooled workspace for a backward
    that never comes; each module's observed output shape feeds the
    cycle model, and costs roll up into the top-level layer that owns
    the module.
    """
    if not isinstance(model, Sequential):
        raise TypeError(
            f"pipeline partitioning needs a Sequential model, got "
            f"{type(model).__name__}"
        )
    config = AcceleratorConfig()
    module_cost: dict[int, float] = {}

    def hook(module: Module, output: np.ndarray) -> None:
        spec = _spec_for_module(module, output)
        if spec is not None:
            module_cost[id(module)] = float(
                layer_forward_cycles(spec, 1, config)
                + layer_backward_cycles(spec, 1, config)
            )

    hooked: list[tuple[Module, Optional[object]]] = []
    for module in model.modules():
        hooked.append((module, module.forward_hook))
        module.forward_hook = hook
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            model(np.zeros((1, *input_shape), dtype=np.float32))
    finally:
        for module, previous in hooked:
            module.forward_hook = previous
        if was_training:
            model.train()
    costs = []
    for layer in model.layers:
        total = sum(
            module_cost.get(id(module), 0.0) for module in layer.modules()
        )
        costs.append(total)
    return costs


def balanced_boundaries(
    costs: Sequence[float], num_stages: int
) -> tuple[tuple[int, int], ...]:
    """Contiguous split of ``costs`` into ``num_stages`` non-empty parts
    minimizing the maximum part sum (classic linear-partition DP)."""
    n = len(costs)
    if num_stages < 1:
        raise ValueError("need at least one stage")
    if num_stages > n:
        raise ValueError(
            f"cannot split {n} layers into {num_stages} non-empty stages"
        )
    prefix = np.concatenate([[0.0], np.cumsum(costs)])

    def span(i: int, j: int) -> float:
        return float(prefix[j] - prefix[i])

    # best[s][i]: minimal max-stage-cost splitting costs[:i] into s stages.
    inf = float("inf")
    best = [[inf] * (n + 1) for _ in range(num_stages + 1)]
    cut = [[0] * (n + 1) for _ in range(num_stages + 1)]
    best[0][0] = 0.0
    for s in range(1, num_stages + 1):
        for i in range(s, n + 1):
            for j in range(s - 1, i):
                candidate = max(best[s - 1][j], span(j, i))
                if candidate < best[s][i]:
                    best[s][i] = candidate
                    cut[s][i] = j
    boundaries: list[tuple[int, int]] = []
    end = n
    for s in range(num_stages, 0, -1):
        start = cut[s][end]
        boundaries.append((start, end))
        end = start
    boundaries.reverse()
    return tuple(boundaries)


def partition_sequential(
    model: Sequential,
    num_stages: int,
    input_shape: Sequence[int],
) -> tuple[list[Sequential], StagePlan]:
    """Split ``model`` into ``num_stages`` balanced stage sub-models.

    Returns ``(stages, plan)``; the stages wrap the *same* layer objects
    as ``model``, in order, so running them back-to-back is numerically
    identical to running the original model.
    """
    costs = probe_layer_costs(model, input_shape)
    boundaries = balanced_boundaries(costs, num_stages)
    stages = [Sequential(*model.layers[a:b]) for a, b in boundaries]
    return stages, StagePlan(boundaries=boundaries, layer_costs=tuple(costs))
