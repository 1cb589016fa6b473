"""Systolic-accelerator simulator: cycles, traffic, energy, area/power."""

from .adagp import AcceleratorModel, BatchCost, LayerCost, LayerPhaseCost
from .area import (
    AsicArea,
    AsicPower,
    FpgaPower,
    FpgaResources,
    asic_area,
    asic_power,
    fpga_power,
    fpga_resources,
)
from .config import (
    AcceleratorConfig,
    AdaGPDesign,
    DataflowKind,
    PredictorHardware,
)
from .dataflow import (
    gemm_cycles,
    layer_backward_cycles,
    layer_forward_cycles,
)
from .energy import (
    EnergyBreakdown,
    traffic_energy,
    training_energy,
)
from .memory import (
    Traffic,
    layer_backward_traffic,
    layer_forward_traffic,
    layer_gp_update_traffic,
)
from .predictor_cost import predictor_layer_cost, predictor_load_cycles

__all__ = [
    "AcceleratorModel",
    "BatchCost",
    "LayerCost",
    "LayerPhaseCost",
    "AsicArea",
    "AsicPower",
    "FpgaPower",
    "FpgaResources",
    "asic_area",
    "asic_power",
    "fpga_power",
    "fpga_resources",
    "AcceleratorConfig",
    "AdaGPDesign",
    "DataflowKind",
    "PredictorHardware",
    "gemm_cycles",
    "layer_backward_cycles",
    "layer_forward_cycles",
    "EnergyBreakdown",
    "traffic_energy",
    "training_energy",
    "Traffic",
    "layer_backward_traffic",
    "layer_forward_traffic",
    "layer_gp_update_traffic",
    "predictor_layer_cost",
    "predictor_load_cycles",
]
