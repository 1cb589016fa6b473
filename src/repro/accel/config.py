"""Accelerator configuration (paper §4.1, §5.1).

The baseline is a weight-stationary systolic accelerator with 180 PEs
(the paper's FPGA/ASIC implementation), a global buffer, and off-chip
DRAM.  Data is 16-bit (2 bytes/element) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class DataflowKind(str, Enum):
    """Systolic dataflows evaluated in the paper (§4.1, Figs 17-19)."""

    WEIGHT_STATIONARY = "WS"
    OUTPUT_STATIONARY = "OS"
    INPUT_STATIONARY = "IS"
    ROW_STATIONARY = "RS"


class AdaGPDesign(str, Enum):
    """The three hardware extensions of §4.2 (Fig 14)."""

    LOW = "ADA-GP-LOW"
    EFFICIENT = "ADA-GP-Efficient"
    MAX = "ADA-GP-MAX"


@dataclass(frozen=True)
class AcceleratorConfig:
    """Physical parameters of the simulated accelerator."""

    rows: int = 12
    cols: int = 15  # 12 x 15 = 180 PEs, the paper's array size
    dataflow: DataflowKind = DataflowKind.WEIGHT_STATIONARY
    bytes_per_element: int = 2
    dram_bandwidth_bytes_per_cycle: int = 16
    global_buffer_kb: int = 512
    frequency_mhz: float = 200.0

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array dimensions must be positive")
        if self.dram_bandwidth_bytes_per_cycle <= 0:
            raise ValueError("DRAM bandwidth must be positive")

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class PredictorHardware:
    """Shape of the on-accelerator predictor (mirrors PredictorNetwork).

    ``alpha`` in the paper's timeline analysis (§3.7) is the latency this
    unit adds per layer; it is computed from these dimensions plus the
    per-layer gradient row size (the FC output is masked per layer,
    §3.6).
    """

    pool_size: int = 8
    conv_channels: int = 4
    conv_kernel: int = 3
    final_pool: int = 4
    fc_in: int = 4 * 4 * 4  # conv_channels * final_pool^2

    @property
    def conv_weight_params(self) -> int:
        return self.conv_channels * self.conv_kernel * self.conv_kernel

    def fc_weight_params(self, max_row: int) -> int:
        return self.fc_in * max_row

    def weight_bytes(self, max_row: int, bytes_per_element: int = 2) -> int:
        """Total predictor weight footprint (the Predictor Memory size)."""
        return (self.conv_weight_params + self.fc_weight_params(max_row)) * (
            bytes_per_element
        )

    def layer_weight_bytes(self, row: int, bytes_per_element: int = 2) -> int:
        """Weights a masked prediction for one layer actually touches."""
        return (self.conv_weight_params + self.fc_in * row) * bytes_per_element
