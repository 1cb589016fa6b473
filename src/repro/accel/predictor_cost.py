"""Cycle/traffic cost of the on-accelerator predictor (the paper's alpha).

The predictor consumes batch-averaged activations, so unlike the model
layers its cost does *not* scale with the batch size — which is exactly
why alpha stays "smaller than the FW pass latency of each layer" (§3.7)
at realistic batch sizes.

Per predictable layer with ``units`` output channels and gradient-row
size ``row`` (masked FC, §3.6):

* pooling: negligible vector work,
* conv stage: GEMM (conv_channels x k^2) over ``pool_size^2 * units``
  positions,
* FC stage: GEMM (row x fc_in) over ``units`` positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.specs import LayerKind, LayerSpec
from .config import AcceleratorConfig, PredictorHardware
from .dataflow import gemm_cycles
from .memory import Traffic


@dataclass(frozen=True)
class PredictorLayerCost:
    """Alpha (fw), 2*alpha (bw/training), and the traffic they cause."""

    alpha_fw: int
    alpha_bw: int
    fw_traffic: Traffic
    train_traffic: Traffic


def gradient_row_of(spec: LayerSpec) -> int:
    """Per-output-unit gradient row size of a predictable layer spec."""
    if spec.kind == LayerKind.DEPTHWISE_CONV:
        return spec.kernel_area
    if spec.kind == LayerKind.CONV:
        return spec.in_channels * spec.kernel_area
    if spec.kind == LayerKind.LINEAR:
        return spec.in_channels
    raise ValueError(f"layer kind {spec.kind} is not predictable")


def predictor_layer_cost(
    spec: LayerSpec,
    config: AcceleratorConfig,
    on_chip_weights: bool,
) -> PredictorLayerCost:
    """Cost of predicting (and of training on) one layer's gradients.

    ``on_chip_weights`` reflects the design: Efficient/MAX keep predictor
    weights in a dedicated memory (SRAM traffic); LOW must stream them
    from DRAM every use.
    """
    units = spec.out_channels
    row = gradient_row_of(spec)
    elem = config.bytes_per_element
    hardware = PredictorHardware
    conv_n = hardware.pool_size * hardware.pool_size * units
    conv_cycles = gemm_cycles(
        hardware.conv_channels,
        hardware.conv_kernel * hardware.conv_kernel,
        conv_n,
        config,
    )
    fc_cycles = gemm_cycles(row, hardware.fc_in, units, config)
    alpha_fw = conv_cycles + fc_cycles
    alpha_bw = 2 * alpha_fw  # paper §3.7: predictor BW latency = 2*alpha

    weight_bytes = hardware.layer_weight_bytes(row, elem)
    act_bytes = units * hardware.pool_size * hardware.pool_size * elem
    grad_bytes = units * row * elem
    if on_chip_weights:
        fw_traffic = Traffic(sram=weight_bytes + act_bytes + grad_bytes)
        train_traffic = Traffic(sram=3 * weight_bytes + act_bytes + 2 * grad_bytes)
    else:
        fw_traffic = Traffic(
            dram_read=weight_bytes, sram=act_bytes + grad_bytes
        )
        train_traffic = Traffic(
            dram_read=2 * weight_bytes,
            dram_write=weight_bytes,
            sram=act_bytes + 2 * grad_bytes,
        )
    return PredictorLayerCost(
        alpha_fw=alpha_fw,
        alpha_bw=alpha_bw,
        fw_traffic=fw_traffic,
        train_traffic=train_traffic,
    )


def predictor_load_cycles(row: int, config: AcceleratorConfig) -> int:
    """DRAM cycles to stream predictor weights for one layer (LOW design).

    The LOW design has no dedicated predictor memory, so before each
    predictor use it streams the weights the masked prediction touches
    (the FC rows for this layer's gradient-row size, §3.6) from DRAM,
    and it must first stage out the model context it displaces —
    costed as a second pass over the same bytes.
    """
    weight_bytes = PredictorHardware.layer_weight_bytes(
        row, config.bytes_per_element
    )
    return -(-2 * weight_bytes // config.dram_bandwidth_bytes_per_cycle)
