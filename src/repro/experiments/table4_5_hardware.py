"""Tables 4 & 5: FPGA resource/power and ASIC area/power of the designs.

These compose the component cost library of :mod:`repro.accel.area`
(calibrated to the paper's Vivado / Design Compiler results — see the
module docstring there) and additionally reproduce the §6.6.1
equal-power / equal-area study: a baseline granted ~10-11% extra PEs
gains only ~4-6% speedup, far less than ADA-GP-MAX's ~46%.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel import (
    AcceleratorConfig,
    AcceleratorModel,
    AdaGPDesign,
    asic_area,
    asic_power,
    fpga_power,
    fpga_resources,
)
from ..core import HeuristicSchedule, phase_counts
from ..models import spec_for
from .formats import format_table

DESIGN_ORDER: list[AdaGPDesign | None] = [
    None,
    AdaGPDesign.LOW,
    AdaGPDesign.EFFICIENT,
    AdaGPDesign.MAX,
]


def _design_name(design: AdaGPDesign | None) -> str:
    return "Baseline" if design is None else design.value


def format_table4a() -> str:
    rows = []
    for design in DESIGN_ORDER:
        r = fpga_resources(design)
        rows.append(
            [_design_name(design), r.clb_luts, r.clb_registers, r.ramb36,
             r.ramb18, r.dsp48]
        )
    return format_table(
        ["Design", "#CLB LUTs", "#CLB Registers", "#RAMB36", "#RAMB18", "#DSP48E1s"],
        rows,
        title="Table 4a: FPGA resource utilization",
    )


def format_table4b() -> str:
    rows = []
    for design in DESIGN_ORDER:
        p = fpga_power(design)
        rows.append(
            [
                _design_name(design),
                f"{p.clocks:.3f}",
                f"{p.logic:.3f}",
                f"{p.signals:.3f}",
                f"{p.bram:.3f}",
                f"{p.dsp:.3f}",
                f"{p.static:.3f}",
                f"{p.total:.3f}",
            ]
        )
    return format_table(
        ["Design", "Clocks", "Logic", "Signals", "BRAM", "DSPs", "Static", "Total"],
        rows,
        title="Table 4b: FPGA on-chip power (watts)",
    )


def format_table5a() -> str:
    rows = []
    for design in DESIGN_ORDER:
        a = asic_area(design)
        rows.append(
            [_design_name(design), a.combinational, a.buf_inv,
             a.net_interconnect, a.total_cell, a.total]
        )
    return format_table(
        ["Design", "Combinational", "Buf/Inv", "Net Interconnect", "Total Cell",
         "Total Area"],
        rows,
        title="Table 5a: ASIC area",
    )


def format_table5b() -> str:
    rows = []
    for design in DESIGN_ORDER:
        p = asic_power(design)
        rows.append(
            [
                _design_name(design),
                f"{p.internal:.2e}",
                f"{p.switching:.2e}",
                f"{p.leakage:.2e}",
                f"{p.total:.2e}",
            ]
        )
    return format_table(
        ["Design", "Internal", "Switching", "Leakage", "Total"],
        rows,
        title="Table 5b: ASIC power (microwatts)",
    )


@dataclass
class EqualResourceRow:
    dataset: str
    extra_pe_fraction: float
    baseline_gain: float  # bigger-baseline speedup over 180-PE baseline
    adagp_max_gain: float  # ADA-GP-MAX speedup over 180-PE baseline


def run_equal_resource_study(
    extra_pe_fraction: float = 0.10,
    datasets: list[str] | None = None,
    model: str = "ResNet50",
    epochs: int = 90,
    batches_per_epoch: int = 50,
    batch: int = 32,
) -> list[EqualResourceRow]:
    """§6.6.1: give the baseline the same power/area budget as ADA-GP-MAX.

    The paper adds 10% PEs (FPGA, equal power) or 11% (ASIC, equal area)
    and measures only a ~4.3-5.5% baseline speedup.
    """
    datasets = datasets or ["Cifar10", "Cifar100", "ImageNet"]
    base_cfg = AcceleratorConfig()
    extra_cols = max(int(round(base_cfg.cols * (1 + extra_pe_fraction))), base_cfg.cols + 1)
    big_cfg = AcceleratorConfig(rows=base_cfg.rows, cols=extra_cols)
    small = AcceleratorModel(base_cfg)
    big = AcceleratorModel(big_cfg)
    counts = phase_counts(HeuristicSchedule(), epochs, batches_per_epoch)
    rows = []
    for dataset in datasets:
        spec = spec_for(model, dataset)
        base_cycles = small.training_cost(spec, None, counts, batch).cycles
        big_cycles = big.training_cost(spec, None, counts, batch).cycles
        ada_cycles = small.training_cost(spec, AdaGPDesign.MAX, counts, batch).cycles
        rows.append(
            EqualResourceRow(
                dataset=dataset,
                extra_pe_fraction=extra_pe_fraction,
                baseline_gain=base_cycles / big_cycles - 1.0,
                adagp_max_gain=base_cycles / ada_cycles - 1.0,
            )
        )
    return rows


def format_equal_resource(rows: list[EqualResourceRow]) -> str:
    table_rows = [
        [
            r.dataset,
            f"+{r.extra_pe_fraction:.0%} PEs",
            f"{r.baseline_gain:+.2%}",
            f"{r.adagp_max_gain:+.2%}",
        ]
        for r in rows
    ]
    return format_table(
        ["Dataset", "Baseline budget", "Bigger-baseline gain", "ADA-GP-MAX gain"],
        table_rows,
        title="§6.6.1: equal power/area study",
    )


def main() -> None:  # pragma: no cover
    print(format_table4a())
    print()
    print(format_table4b())
    print()
    print(format_table5a())
    print()
    print(format_table5b())
    print()
    print(format_equal_resource(run_equal_resource_study()))


if __name__ == "__main__":  # pragma: no cover
    main()
