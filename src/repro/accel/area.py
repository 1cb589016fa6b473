"""FPGA / ASIC resource, area, and power models (paper Tables 4 & 5).

The paper synthesized its designs with Vivado (Virtex-7) and Synopsys
Design Compiler; neither is available offline.  Instead, this module
carries a *component cost library* — per-block resource/power records
extracted from the paper's own synthesis results — and composes the four
designs (baseline, LOW, Efficient, MAX) out of those components:

    baseline   = PE array + global buffer + controller
    LOW        = baseline + ADA-GP control (tensor reorg / masking logic)
    Efficient  = LOW + predictor memory
    MAX        = Efficient + predictor PE array

Because component values are calibrated to the paper, the composed
tables match Table 4/5 by construction; what the model adds is the
ability to re-compose (e.g. scale the PE array for the §6.6.1
equal-power / equal-area studies, or cost a different predictor memory).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .config import AdaGPDesign


# ----------------------------------------------------------------------
# FPGA (Virtex-7) model.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FpgaResources:
    """Table 4a row: Virtex-7 resource usage."""

    clb_luts: int = 0
    clb_registers: int = 0
    ramb36: int = 0
    ramb18: int = 0
    dsp48: int = 0

    def __add__(self, other: "FpgaResources") -> "FpgaResources":
        return FpgaResources(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def scaled(self, factor: float) -> "FpgaResources":
        return FpgaResources(
            **{f.name: int(round(getattr(self, f.name) * factor)) for f in fields(self)}
        )


@dataclass(frozen=True)
class FpgaPower:
    """Table 4b row: on-chip power (watts) by rail."""

    clocks: float = 0.0
    logic: float = 0.0
    signals: float = 0.0
    bram: float = 0.0
    dsp: float = 0.0
    static: float = 0.0
    io: float = 0.0

    def __add__(self, other: "FpgaPower") -> "FpgaPower":
        return FpgaPower(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def total(self) -> float:
        return (
            self.clocks + self.logic + self.signals + self.bram + self.dsp
            + self.static + self.io
        )


# Component library: the baseline accelerator split into blocks, plus the
# three ADA-GP additions. Values calibrated to the paper's Table 4.
FPGA_PE_ARRAY = FpgaResources(clb_luts=302400, clb_registers=21600, dsp48=166)
FPGA_GLOBAL_BUFFER = FpgaResources(
    clb_luts=60000, clb_registers=6000, ramb36=1327, ramb18=514
)
FPGA_CONTROLLER = FpgaResources(clb_luts=109604, clb_registers=3802)
FPGA_ADAGP_CONTROL = FpgaResources(clb_luts=17282, clb_registers=454)
FPGA_PREDICTOR_MEMORY = FpgaResources(clb_luts=3885, clb_registers=60, ramb36=1080)
FPGA_PREDICTOR_PE_ARRAY = FpgaResources(clb_luts=909, clb_registers=5536, dsp48=80)

FPGA_BASE_POWER = FpgaPower(
    clocks=0.046, logic=0.420, signals=0.842, bram=0.244, dsp=0.009,
    static=2.032, io=0.119,
)
FPGA_ADAGP_CONTROL_POWER = FpgaPower(
    clocks=0.001, logic=0.026, signals=0.015, bram=-0.001, dsp=-0.008
)
FPGA_PREDICTOR_MEMORY_POWER = FpgaPower(
    clocks=0.005, logic=-0.025, signals=-0.005, bram=0.096, static=0.028
)
FPGA_PREDICTOR_PE_POWER = FpgaPower(
    clocks=0.003, logic=0.005, signals=0.005, static=-0.001
)


def fpga_resources(design: AdaGPDesign | None) -> FpgaResources:
    """Composed Virtex-7 resources for a design (None = baseline)."""
    total = FPGA_PE_ARRAY + FPGA_GLOBAL_BUFFER + FPGA_CONTROLLER
    if design is None:
        return total
    total = total + FPGA_ADAGP_CONTROL
    if design == AdaGPDesign.LOW:
        return total
    total = total + FPGA_PREDICTOR_MEMORY
    if design == AdaGPDesign.EFFICIENT:
        return total
    return total + FPGA_PREDICTOR_PE_ARRAY


def fpga_power(design: AdaGPDesign | None) -> FpgaPower:
    """Composed on-chip power for a design (None = baseline)."""
    total = FPGA_BASE_POWER
    if design is None:
        return total
    total = total + FPGA_ADAGP_CONTROL_POWER
    if design == AdaGPDesign.LOW:
        return total
    total = total + FPGA_PREDICTOR_MEMORY_POWER
    if design == AdaGPDesign.EFFICIENT:
        return total
    return total + FPGA_PREDICTOR_PE_POWER


# ----------------------------------------------------------------------
# ASIC model.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AsicArea:
    """Table 5a row: areas in library units (um^2)."""

    combinational: int = 0
    buf_inv: int = 0
    net_interconnect: int = 0
    total_cell: int = 0
    total: int = 0

    def __add__(self, other: "AsicArea") -> "AsicArea":
        return AsicArea(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )


@dataclass(frozen=True)
class AsicPower:
    """Table 5b row: power in microwatts by category."""

    internal: float = 0.0
    switching: float = 0.0
    leakage: float = 0.0

    def __add__(self, other: "AsicPower") -> "AsicPower":
        return AsicPower(
            internal=self.internal + other.internal,
            switching=self.switching + other.switching,
            leakage=self.leakage + other.leakage,
        )

    @property
    def total(self) -> float:
        return self.internal + self.switching + self.leakage


ASIC_BASELINE = AsicArea(
    combinational=2331250,
    buf_inv=272483,
    net_interconnect=436615,
    total_cell=2546076,
    total=2982691,
)
ASIC_ADAGP_CONTROL = AsicArea(
    combinational=43938, buf_inv=4778, net_interconnect=8756,
    total_cell=44507, total=53263,
)
ASIC_PREDICTOR_MEMORY = AsicArea(
    combinational=30693, buf_inv=-1478, net_interconnect=-5340,
    total_cell=32275, total=26936,
)
ASIC_PREDICTOR_PE_ARRAY = AsicArea(
    combinational=106176, buf_inv=11293, net_interconnect=20126,
    total_cell=148121, total=168246,
)

ASIC_BASE_POWER = AsicPower(internal=2.26e4, switching=1.72e3, leakage=1.99e5)
ASIC_ADAGP_CONTROL_POWER = AsicPower(internal=-1.0e2, switching=-5.0e1, leakage=3.0e3)
ASIC_PREDICTOR_MEMORY_POWER = AsicPower(
    internal=2.0e2, switching=1.3e2, leakage=-2.0e3
)
ASIC_PREDICTOR_PE_POWER = AsicPower(internal=5.3e3, switching=6.2e2, leakage=2.3e4)


def asic_area(design: AdaGPDesign | None) -> AsicArea:
    total = ASIC_BASELINE
    if design is None:
        return total
    total = total + ASIC_ADAGP_CONTROL
    if design == AdaGPDesign.LOW:
        return total
    total = total + ASIC_PREDICTOR_MEMORY
    if design == AdaGPDesign.EFFICIENT:
        return total
    return total + ASIC_PREDICTOR_PE_ARRAY


def asic_power(design: AdaGPDesign | None) -> AsicPower:
    total = ASIC_BASE_POWER
    if design is None:
        return total
    total = total + ASIC_ADAGP_CONTROL_POWER
    if design == AdaGPDesign.LOW:
        return total
    total = total + ASIC_PREDICTOR_MEMORY_POWER
    if design == AdaGPDesign.EFFICIENT:
        return total
    return total + ASIC_PREDICTOR_PE_POWER
