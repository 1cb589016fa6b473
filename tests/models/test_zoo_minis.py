"""Tests for the trainable mini model zoo."""

import numpy as np
import pytest

from repro import nn
from repro.models import MINI_BUILDERS, build_mini
from repro.models.zoo import mini_densenet, mini_resnet, mini_vgg

RNG = np.random.default_rng(17)


def _input(batch=2, size=16):
    return RNG.standard_normal((batch, 3, size, size)).astype(np.float32)


class TestMiniZoo:
    @pytest.mark.parametrize("name", sorted(MINI_BUILDERS))
    def test_forward_backward_round_trip(self, name):
        model = build_mini(name, 10, rng=np.random.default_rng(0))
        x = _input()
        out = model.forward(x)
        assert out.shape == (2, 10)
        assert np.isfinite(out).all()
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert np.isfinite(grad_in).all()
        # Every parameter that exists received a gradient.
        assert all(p.grad is not None for p in model.parameters())

    @pytest.mark.parametrize("name", sorted(MINI_BUILDERS))
    def test_has_predictable_layers(self, name):
        model = build_mini(name, 10, rng=np.random.default_rng(0))
        layers = nn.predictable_layers(model)
        assert len(layers) >= 5

    def test_vgg13_mini_keeps_ten_convs(self):
        model = mini_vgg("VGG13", 10, rng=np.random.default_rng(0))
        convs = [m for m in model.modules() if isinstance(m, nn.Conv2d)]
        assert len(convs) == 10

    def test_resnet_minis_preserve_depth_order(self):
        counts = []
        for name in ("ResNet50", "ResNet101", "ResNet152"):
            model = mini_resnet(name, 10, rng=np.random.default_rng(0))
            counts.append(
                len([m for m in model.modules() if isinstance(m, nn.Conv2d)])
            )
        assert counts[0] < counts[1] < counts[2]

    def test_densenet_minis_concatenate(self):
        model = mini_densenet("DenseNet121", 10, rng=np.random.default_rng(0))
        dense_blocks = [m for m in model.modules() if isinstance(m, nn.DenseConcat)]
        assert len(dense_blocks) == 6  # (2, 2, 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_mini("LeNet", 10)

    def test_deterministic_given_rng(self):
        a = build_mini("VGG13", 10, rng=np.random.default_rng(5))
        b = build_mini("VGG13", 10, rng=np.random.default_rng(5))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_reasonable_size_for_numpy_training(self):
        for name in sorted(MINI_BUILDERS):
            model = build_mini(name, 10, rng=np.random.default_rng(0))
            assert sum(p.size for p in model.parameters()) < 500_000, name
