"""Tests for the DNI baseline and the paper's §2 cost argument."""

import numpy as np
import pytest

from repro import nn
from repro.accel import AcceleratorModel, AdaGPDesign
from repro.core import HeuristicSchedule, dni_engine, phase_counts
from repro.models import CLASSIFICATION_MODELS, spec_for
from repro.nn.losses import CrossEntropyLoss, accuracy

RNG = np.random.default_rng(41)


def _tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 3, rng=rng),
    )


class TestDNITrainer:
    def test_batch_updates_model_and_predictor(self):
        engine = dni_engine(_tiny_model(), CrossEntropyLoss(), lr=0.05)
        x = RNG.standard_normal((8, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 8)
        weights_before = {
            name: p.data.copy() for name, p in engine.model.named_parameters()
        }
        predictor_before = [
            p.data.copy() for p in engine.predictor.network.parameters()
        ]
        engine.train_batch(x, y)
        assert any(
            not np.array_equal(weights_before[name], p.data)
            for name, p in engine.model.named_parameters()
        )
        assert any(
            not np.array_equal(b, a.data)
            for b, a in zip(predictor_before, engine.predictor.network.parameters())
        )

    def test_hooks_removed_after_batch(self):
        engine = dni_engine(_tiny_model(), CrossEntropyLoss(), lr=0.05)
        x = RNG.standard_normal((4, 3, 8, 8)).astype(np.float32)
        engine.train_batch(x, RNG.integers(0, 3, 4))
        assert all(layer.forward_hook is None for layer in engine.layers)

    def test_still_learns(self):
        from repro.data import synthetic_images

        split = synthetic_images(3, 64, 32, image_size=8, seed=5)
        engine = dni_engine(
            _tiny_model(seed=2), CrossEntropyLoss(), lr=0.05, metric_fn=accuracy
        )
        history = engine.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(1)),
            lambda: split.val.batches(32, shuffle=False),
            epochs=8,
        )
        assert history.best_metric > 50.0


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
