"""The paper's §2 argument against DNI, checked on the cycle model.

DNI (Jaderberg et al.) trains a gradient predictor but keeps the full
backward pass, so its batch costs the Efficient design's Phase-BP batch
— backprop plus predictor training — on every batch, and it never beats
plain BP.  ADA-GP's phase mix skips backward work and does.
"""

import pytest

from repro.accel import AcceleratorModel, AdaGPDesign
from repro.core import HeuristicSchedule, phase_counts
from repro.models import CLASSIFICATION_MODELS, spec_for


class TestDNICostArgument:
    def test_dni_is_slower_than_bp_per_batch(self):
        """Paper §2: DNI keeps (and inflates) the backprop step."""
        spec = spec_for("VGG13", "Cifar10")
        accelerator = AcceleratorModel()
        dni = accelerator.phase_bp_batch(spec, 32, AdaGPDesign.EFFICIENT).cycles
        assert dni / accelerator.baseline_batch(spec, 32).cycles > 1.0

    @pytest.mark.parametrize("model", CLASSIFICATION_MODELS)
    def test_every_model_pays_bp_plus_predictor(self, model):
        """DNI's batch is the Efficient Phase-BP batch — the full backprop
        step plus predictor training — so it never undercuts BP."""
        spec = spec_for(model, "Cifar10")
        accelerator = AcceleratorModel()
        dni = accelerator.phase_bp_batch(spec, 32, AdaGPDesign.EFFICIENT).cycles
        assert dni > accelerator.baseline_batch(spec, 32).cycles

    def test_adagp_training_beats_dni_training(self):
        """End-to-end: ADA-GP's phase mix is faster than DNI's constant
        BP+predictor cost — the paper's core §2 differentiation."""
        spec = spec_for("VGG13", "Cifar10")
        accelerator = AcceleratorModel()
        epochs, batches = 30, 20
        dni_total = accelerator.phase_bp_batch(
            spec, 32, AdaGPDesign.EFFICIENT
        ).cycles * (epochs * batches)
        counts = phase_counts(HeuristicSchedule(warmup_epochs=5), epochs, batches)
        ada_total = accelerator.training_cost(
            spec, AdaGPDesign.EFFICIENT, counts
        ).cycles
        base_total = accelerator.training_cost(spec, None, counts).cycles
        assert dni_total > base_total  # DNI slower than plain BP
        assert ada_total < base_total  # ADA-GP faster than plain BP
