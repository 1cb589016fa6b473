"""Systolic-accelerator simulator: cycles, traffic, energy, area/power."""

from .adagp import AcceleratorModel, BatchCost, LayerCost, LayerPhaseCost
from .calibrate import (
    CalibrationReport,
    OpCalibration,
    calibrate,
    calibrate_from_bench,
    calibrated_config,
)
from .area import (
    AsicArea,
    AsicPower,
    FpgaPower,
    FpgaResources,
    area_overhead,
    asic_area,
    asic_power,
    equal_resource_pe_bonus,
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
    utilization,
)
from .energy import (
    EnergyBreakdown,
    energy_saving,
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
    "CalibrationReport",
    "OpCalibration",
    "calibrate",
    "calibrate_from_bench",
    "calibrated_config",
    "AsicArea",
    "AsicPower",
    "FpgaPower",
    "FpgaResources",
    "area_overhead",
    "asic_area",
    "asic_power",
    "equal_resource_pe_bonus",
    "fpga_power",
    "fpga_resources",
    "AcceleratorConfig",
    "AdaGPDesign",
    "DataflowKind",
    "PredictorHardware",
    "gemm_cycles",
    "layer_backward_cycles",
    "layer_forward_cycles",
    "utilization",
    "EnergyBreakdown",
    "energy_saving",
    "traffic_energy",
    "training_energy",
    "Traffic",
    "layer_backward_traffic",
    "layer_forward_traffic",
    "layer_gp_update_traffic",
    "predictor_layer_cost",
    "predictor_load_cycles",
]
