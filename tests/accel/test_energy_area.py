"""Tests for the traffic/energy model and the FPGA/ASIC cost tables."""

import pytest

from repro.accel import (
    AdaGPDesign,
    Traffic,
    asic_area,
    asic_power,
    fpga_power,
    fpga_resources,
    traffic_energy,
    training_energy,
)
from repro.accel.memory import (
    layer_backward_traffic,
    layer_forward_traffic,
    layer_gp_update_traffic,
)
from repro.accel.config import AcceleratorConfig
from repro.experiments import table4_5_hardware
from repro.models import spec_for
from repro.models.specs import SpecBuilder

CFG = AcceleratorConfig()


def _conv_spec():
    builder = SpecBuilder("t", (16, 8, 8))
    builder.conv(32, 3, padding=1)
    return builder.build().layers[0]


class TestTraffic:
    def test_traffic_adds_and_scales(self):
        a = Traffic(dram_read=1, dram_write=2, sram=3)
        b = Traffic(dram_read=10, dram_write=20, sram=30)
        assert (a + b).dram_total == 33
        assert a.scaled(4).sram == 12

    def test_forward_traffic_components(self):
        spec = _conv_spec()
        t = layer_forward_traffic(spec, 4, CFG)
        weights = 32 * 16 * 9 * 2
        inputs = 16 * 64 * 4 * 2
        outputs = 32 * 64 * 4 * 2
        assert t.dram_read == weights + inputs
        assert t.dram_write == outputs

    def test_backward_traffic_exceeds_forward(self):
        spec = _conv_spec()
        fw = layer_forward_traffic(spec, 4, CFG)
        bw = layer_backward_traffic(spec, 4, CFG)
        assert bw.dram_total > fw.dram_total

    def test_gp_update_touches_only_weights(self):
        spec = _conv_spec()
        t = layer_gp_update_traffic(spec, 4, CFG)
        assert t.dram_read == 0
        assert t.dram_write == spec.weight_params * 2


class TestEnergy:
    def test_traffic_energy_conversion(self):
        e = traffic_energy(Traffic(dram_read=10**12, dram_write=0, sram=0))
        assert e.dram_joules == pytest.approx(50.0)
        assert e.total_joules == pytest.approx(50.0)

    def test_energy_saving_in_paper_range(self):
        """Paper: ~34% average memory-energy saving."""
        savings = []
        for name in ("VGG13", "ResNet50", "DenseNet121"):
            spec = spec_for(name, "ImageNet")
            base, ada = (
                training_energy(spec, design, epochs=90, batches_per_epoch=20).total_joules
                for design in (None, AdaGPDesign.EFFICIENT)
            )
            savings.append(1.0 - ada / base)
        mean = sum(savings) / len(savings)
        assert 0.25 < mean < 0.45

    def test_baseline_uses_no_design(self):
        from repro.core import HeuristicSchedule

        spec = spec_for("VGG13", "Cifar10")
        base = training_energy(spec, None, epochs=2, batches_per_epoch=10)
        # All-warm-up runs cost slightly MORE than baseline (predictor
        # training traffic) — the saving comes from GP batches.
        warmup_only = training_energy(
            spec, AdaGPDesign.EFFICIENT, epochs=2, batches_per_epoch=10,
            schedule=HeuristicSchedule(warmup_epochs=10),
        )
        assert warmup_only.total_joules > base.total_joules
        with_gp = training_energy(
            spec, AdaGPDesign.EFFICIENT, epochs=2, batches_per_epoch=10,
            schedule=HeuristicSchedule(warmup_epochs=0),
        )
        assert with_gp.total_joules < base.total_joules


class TestFpgaTables:
    def test_baseline_matches_paper_table4a(self):
        r = fpga_resources(None)
        assert r.clb_luts == 472004
        assert r.clb_registers == 31402
        assert r.ramb36 == 1327
        assert r.ramb18 == 514
        assert r.dsp48 == 166

    def test_designs_match_paper_table4a(self):
        assert fpga_resources(AdaGPDesign.LOW).clb_luts == 489286
        assert fpga_resources(AdaGPDesign.EFFICIENT).clb_luts == 493171
        assert fpga_resources(AdaGPDesign.EFFICIENT).ramb36 == 2407
        assert fpga_resources(AdaGPDesign.MAX).clb_luts == 494080
        assert fpga_resources(AdaGPDesign.MAX).dsp48 == 246
        assert fpga_resources(AdaGPDesign.MAX).clb_registers == 37452

    def test_power_totals_match_paper_table4b(self):
        assert fpga_power(None).total == pytest.approx(3.712, abs=2e-3)
        assert fpga_power(AdaGPDesign.LOW).total == pytest.approx(3.745, abs=2e-3)
        assert fpga_power(AdaGPDesign.EFFICIENT).total == pytest.approx(3.844, abs=2e-3)
        assert fpga_power(AdaGPDesign.MAX).total == pytest.approx(3.856, abs=2e-3)

    def test_power_overheads_match_paper_percentages(self):
        """Paper §6.6.1: +0.8%, +3.5%, +3.8% on-chip power."""
        base = fpga_power(None).total
        assert fpga_power(AdaGPDesign.LOW).total / base - 1 == pytest.approx(0.008, abs=2e-3)
        assert fpga_power(AdaGPDesign.MAX).total / base - 1 == pytest.approx(0.038, abs=2e-3)


class TestAsicTables:
    def test_baseline_matches_paper_table5a(self):
        a = asic_area(None)
        assert a.combinational == 2331250
        assert a.total == 2982691

    def test_design_areas_match_paper_table5a(self):
        assert asic_area(AdaGPDesign.LOW).total == 3035954
        assert asic_area(AdaGPDesign.EFFICIENT).total == 3062890
        assert asic_area(AdaGPDesign.MAX).total == 3231136

    def test_area_overheads_match_paper_percentages(self):
        """Paper: +1.7%, +2.6%, +8.3% total area."""
        base = asic_area(None).total
        for design, overhead in (
            (AdaGPDesign.LOW, 0.017),
            (AdaGPDesign.EFFICIENT, 0.026),
            (AdaGPDesign.MAX, 0.083),
        ):
            assert asic_area(design).total / base - 1 == pytest.approx(overhead, abs=2e-3)

    def test_asic_power_magnitudes(self):
        base = asic_power(None)
        assert base.total == pytest.approx(2.24e5, rel=0.01)
        assert asic_power(AdaGPDesign.MAX).total > base.total

    def test_equal_resource_bonus(self):
        """§6.6.1: the PEs ADA-GP-MAX's power (+10%, FPGA) or area (+11%,
        ASIC) would buy the baseline gain it far less than ADA-GP-MAX."""
        fpga, asic = (
            table4_5_hardware.run_equal_resource_study(
                bonus, datasets=["Cifar10"], epochs=30, batches_per_epoch=10
            )[0]
            for bonus in (0.10, 0.11)
        )
        assert 0 < fpga.baseline_gain <= asic.baseline_gain
        assert asic.adagp_max_gain > 2 * asic.baseline_gain
