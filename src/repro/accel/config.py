"""Accelerator configuration (paper §4.1, §5.1).

The baseline is a weight-stationary systolic accelerator with 180 PEs
(the paper's FPGA/ASIC implementation), a global buffer, and off-chip
DRAM.  Data is 16-bit (2 bytes/element) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..core.predictor import CONV_CHANNELS, CONV_KERNEL, FINAL_POOL, POOL_SIZE


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


class PredictorHardware:
    """Shape of the on-accelerator predictor: the module constants that
    fix :class:`~repro.core.predictor.PredictorNetwork`'s one shape, so
    the cycle model and the trained network cannot drift apart.  Read
    through the class (:mod:`~repro.accel.predictor_cost` never builds
    one): there is nothing to set.

    ``alpha`` in the paper's timeline analysis (§3.7) is the latency this
    unit adds per layer; it is computed from these dimensions plus the
    per-layer gradient row size (the FC output is masked per layer,
    §3.6).
    """

    __slots__ = ()

    pool_size = POOL_SIZE
    conv_channels = CONV_CHANNELS
    conv_kernel = CONV_KERNEL
    fc_in = CONV_CHANNELS * FINAL_POOL * FINAL_POOL
    conv_weight_params = CONV_CHANNELS * CONV_KERNEL * CONV_KERNEL

    @classmethod
    def layer_weight_bytes(cls, row: int, bytes_per_element: int = 2) -> int:
        """Weights a masked prediction for one layer actually touches."""
        return (cls.conv_weight_params + cls.fc_in * row) * bytes_per_element
