"""Tests for the end-to-end accelerator cost model and its invariants."""

import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorModel,
    AdaGPDesign,
    DataflowKind,
)
from repro.accel.adagp import _overlapped
from repro.core import HeuristicSchedule
from repro.models import spec_for
from repro.models.specs import LayerKind, LayerSpec, ModelSpec

MODEL = AcceleratorModel()
SCHEDULE = HeuristicSchedule()  # paper defaults: L=10, 4:1/3:1/2:1/1:1


class TestBatchCosts:
    def test_gp_batch_cheaper_than_bp_batch(self):
        spec = spec_for("VGG13", "Cifar10")
        for design in AdaGPDesign:
            bp = MODEL.phase_bp_batch(spec, 32, design)
            gp = MODEL.phase_gp_batch(spec, 32, design)
            assert gp.cycles < bp.cycles / 2

    def test_bp_phase_slower_than_plain_baseline(self):
        """Phase BP adds predictor work on top of ordinary backprop."""
        spec = spec_for("VGG13", "Cifar10")
        base = MODEL.baseline_batch(spec, 32)
        for design in (AdaGPDesign.LOW, AdaGPDesign.EFFICIENT):
            bp = MODEL.phase_bp_batch(spec, 32, design)
            assert bp.cycles > base.cycles

    def test_max_hides_predictor_latency(self):
        spec = spec_for("VGG13", "Cifar10")
        eff = MODEL.phase_bp_batch(spec, 32, AdaGPDesign.EFFICIENT)
        max_ = MODEL.phase_bp_batch(spec, 32, AdaGPDesign.MAX)
        assert max_.cycles < eff.cycles

    def test_low_pays_weight_streaming(self):
        spec = spec_for("VGG13", "Cifar10")
        eff = MODEL.phase_gp_batch(spec, 32, AdaGPDesign.EFFICIENT)
        low = MODEL.phase_gp_batch(spec, 32, AdaGPDesign.LOW)
        assert low.cycles > eff.cycles
        assert low.traffic.dram_read > eff.traffic.dram_read

    def test_gp_traffic_below_baseline(self):
        """§6.6.2: GP batches skip the entire backward traffic."""
        spec = spec_for("VGG13", "ImageNet")
        base = MODEL.baseline_batch(spec, 32)
        gp = MODEL.phase_gp_batch(spec, 32, AdaGPDesign.EFFICIENT)
        assert gp.traffic.dram_total < base.traffic.dram_total * 0.6


class TestSpeedups:
    @pytest.mark.parametrize("dataset", ["Cifar10", "ImageNet"])
    def test_design_ordering(self, dataset):
        """MAX >= Efficient >= LOW for every model."""
        for name in ("VGG13", "ResNet50", "MobileNet-V2"):
            spec = spec_for(name, dataset)
            low = MODEL.speedup(spec, AdaGPDesign.LOW, SCHEDULE, 90, 20)
            eff = MODEL.speedup(spec, AdaGPDesign.EFFICIENT, SCHEDULE, 90, 20)
            max_ = MODEL.speedup(spec, AdaGPDesign.MAX, SCHEDULE, 90, 20)
            assert low <= eff <= max_

    def test_speedup_in_paper_range(self):
        """Paper: MAX averages ~1.46-1.48x, up to ~1.58x."""
        speedups = []
        for name in ("ResNet50", "VGG13", "DenseNet121", "MobileNet-V2"):
            spec = spec_for(name, "ImageNet")
            speedups.append(MODEL.speedup(spec, AdaGPDesign.MAX, SCHEDULE, 90, 20))
        mean = sum(speedups) / len(speedups)
        assert 1.3 < mean < 1.6
        assert max(speedups) < 1.75

    def test_all_dataflows_give_speedup(self):
        spec = spec_for("ResNet50", "Cifar10")
        for flow in DataflowKind:
            model = AcceleratorModel(AcceleratorConfig(dataflow=flow))
            assert model.speedup(spec, AdaGPDesign.MAX, SCHEDULE, 90, 20) > 1.2

    def test_no_warmup_all_gp_approaches_three_x(self):
        """With pure GP (never backprop) the bound is ~3x (paper §1)."""
        all_gp = HeuristicSchedule(warmup_epochs=0, ladder=(), final_ratio=(1, 0))
        spec = spec_for("VGG16", "ImageNet")
        speedup = MODEL.speedup(spec, AdaGPDesign.MAX, all_gp, 90, 20)
        assert 2.4 < speedup < 3.2

    def test_more_warmup_means_less_speedup(self):
        spec = spec_for("ResNet50", "Cifar10")
        fast = MODEL.speedup(spec, AdaGPDesign.MAX, HeuristicSchedule(warmup_epochs=5), 90, 20)
        slow = MODEL.speedup(spec, AdaGPDesign.MAX, HeuristicSchedule(warmup_epochs=60), 90, 20)
        assert slow < fast


class TestCharacterization:
    def test_fig16_structure(self):
        spec = spec_for("VGG13", "Cifar10")
        rows = MODEL.layer_characterization(spec, AdaGPDesign.EFFICIENT, 32)
        conv_rows = [r for r in rows if r.name.startswith("conv")]
        assert len(conv_rows) == 10
        for row in conv_rows:
            assert row.phase_gp < row.baseline  # GP skips backward
            assert row.phase_bp >= row.baseline  # BP adds predictor work


class TestOverlap:
    def test_fully_hidden_aux(self):
        assert _overlapped([10, 10, 10], [1, 1, 1]) == 31  # 10+10+10 + last 1

    def test_aux_longer_than_next_layer_stalls(self):
        # layer2 waits for layer1's aux (20 > 10).
        assert _overlapped([10, 10], [20, 5]) == 10 + 20 + 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _overlapped([1], [1, 2])

    def test_max_backward_overlaps_in_execution_order(self):
        """Backward runs last -> first: each layer's predictor training
        hides behind the layer executed after it, and layer 1's — the
        last executed — drains at the end of the pass."""
        layers = [
            LayerSpec(
                f"conv{i}", LayerKind.CONV, cin, cout, 3, padding=1,
                in_h=32, in_w=32, out_h=32, out_w=32,
            )
            for i, (cin, cout) in enumerate([(3, 8), (8, 16), (16, 64)], 1)
        ]
        spec = ModelSpec("three-conv", (3, 32, 32), layers)
        rows = MODEL.layer_costs(spec, 32, AdaGPDesign.MAX)
        assert rows[0].alpha_bw != rows[-1].alpha_bw
        assert min(r.bw for r in rows) > 10 * max(r.alpha_bw for r in rows)
        forward = _overlapped([r.fw for r in rows], [r.alpha_fw for r in rows])
        expected = forward + sum(r.bw for r in rows) + rows[0].alpha_bw
        assert MODEL.phase_bp_batch(spec, 32, AdaGPDesign.MAX).cycles == expected
