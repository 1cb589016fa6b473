"""Tests for Module/Parameter infrastructure and hooks."""

import numpy as np
import pytest

from repro import nn
from repro.models.zoo import MINI_BUILDERS, build_mini
from repro.nn.module import Parameter, predictable_layers


class TestParameter:
    def test_accumulate_allocates_then_adds(self):
        p = Parameter(np.zeros(3, dtype=np.float32))
        p.accumulate_grad(np.ones(3, dtype=np.float32))
        p.accumulate_grad(np.ones(3, dtype=np.float32))
        np.testing.assert_allclose(p.grad, 2.0)

    def test_shape_mismatch_rejected(self):
        p = Parameter(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.ones(4, dtype=np.float32))

    def test_zero_grad_clears(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.accumulate_grad(np.ones(2, dtype=np.float32))
        p.zero_grad()
        assert p.grad is None

    def test_data_is_float32(self):
        p = Parameter(np.zeros(2, dtype=np.float64))
        assert p.data.dtype == np.float32


class TestModuleIntrospection:
    def _model(self):
        rng = np.random.default_rng(0)
        return nn.Sequential(
            nn.Conv2d(3, 4, 3, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 14 * 14, 5, rng=rng),
        )

    def test_named_parameters_unique(self):
        model = self._model()
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert len(names) == 6  # conv w+b, bn w+b, linear w+b

    @pytest.mark.parametrize("name", sorted(MINI_BUILDERS))
    def test_modules_walks_in_named_modules_order(self, name):
        model = build_mini(name, 10, rng=np.random.default_rng(0))
        walked = list(model.modules())
        named = [module for _, module in model.named_modules()]
        assert len(walked) == len(named)
        assert all(a is b for a, b in zip(walked, named))

    def test_modules_sees_layers_appended_after_a_walk(self):
        """No cached module list: ``Sequential.append`` mutates
        ``layers`` in place, and the next ``clear_caches`` must reach
        the new layer."""
        model = self._model()
        model.clear_caches()
        late = nn.ReLU()
        model.append(nn.Sequential(late))
        late(np.ones((2, 5), dtype=np.float32))
        assert late._saved is not None
        model.clear_caches()
        assert late._saved is None

    def test_train_eval_propagates(self):
        model = self._model()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_round_trip(self):
        model = self._model()
        model(np.random.default_rng(1).standard_normal((2, 3, 16, 16)).astype(np.float32))
        state = model.state_dict()
        clone = self._model()
        for p in clone.parameters():
            p.data += 1.0
        bn, clone_bn = model.layers[1], clone.layers[1]
        version = clone_bn.stats_version
        clone.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        # Declared statistics travel too, as copies, and loading moves
        # the counter the conv+BN fold cache keys on.
        assert bn.running_mean.any() and not np.array_equal(bn.running_var, 1.0)
        np.testing.assert_array_equal(clone_bn.running_mean, bn.running_mean)
        np.testing.assert_array_equal(clone_bn.running_var, bn.running_var)
        assert clone_bn.running_mean is not state["layers.1.running_mean"]
        assert clone_bn.stats_version != version

    def test_load_state_dict_validates(self):
        model = self._model()
        state = model.state_dict()
        key = next(iter(state))
        bad = dict(state)
        bad[key] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(bad)
        del bad[key]
        with pytest.raises(KeyError):
            model.load_state_dict(bad)
        del state["layers.1.running_var"]
        with pytest.raises(KeyError, match="layers.1.running_var"):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_unexpected_keys(self):
        model = self._model()
        before = model.state_dict()
        state = {name: value + 1.0 for name, value in before.items()}
        state["nope"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(KeyError, match="nope"):
            model.load_state_dict(state)
        # Refused before anything was written.
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_predictable_layers_in_forward_order(self):
        model = self._model()
        layers = predictable_layers(model)
        assert [type(m).__name__ for m in layers] == ["Conv2d", "Linear"]


class TestForwardHook:
    def test_hook_fires_with_output(self):
        layer = nn.Linear(2, 3, rng=np.random.default_rng(0))
        captured = []
        layer.forward_hook = lambda mod, out: captured.append((mod, out.shape))
        x = np.zeros((4, 2), dtype=np.float32)
        layer(x)
        assert captured == [(layer, (4, 3))]

    def test_hook_fires_inside_sequential(self):
        rng = np.random.default_rng(1)
        inner = nn.Linear(2, 2, rng=rng)
        model = nn.Sequential(inner, nn.ReLU())
        calls = []
        inner.forward_hook = lambda mod, out: calls.append(1)
        model(np.zeros((1, 2), dtype=np.float32))
        assert calls == [1]

    def test_removing_hook_stops_calls(self):
        layer = nn.Linear(2, 2, rng=np.random.default_rng(2))
        calls = []
        layer.forward_hook = lambda mod, out: calls.append(1)
        layer(np.zeros((1, 2), dtype=np.float32))
        layer.forward_hook = None
        layer(np.zeros((1, 2), dtype=np.float32))
        assert calls == [1]

    def test_zero_grad_clears_all(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(3)))
        x = np.ones((1, 2), dtype=np.float32)
        out = model.forward(x)
        model.backward(np.ones_like(out))
        assert all(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())
