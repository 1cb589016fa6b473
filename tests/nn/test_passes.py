"""The fold-pass pipeline: matching, equivalence, cache invalidation.

These tests exercise :mod:`repro.nn.passes` directly — plan shapes and
eligibility rules, per-fold numerical equivalence against the plain
layer-by-layer path on every registered backend, and the version-keyed
fold caches (invalidation after optimizer steps, ``load_state_dict``
and BN running-stat refreshes; weakref eviction of discarded models).
"""

import gc

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import no_grad
from repro.nn.backend import list_backends, native_available
from repro.nn.passes import (
    BNReLUPass,
    ConvBNReLUPass,
    FoldCache,
    FoldedOp,
    LinearActivationPass,
    PassPipeline,
    default_pipeline,
)


def _x(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def _randomize_bn(bn, seed=1):
    rng = np.random.default_rng(seed)
    n = bn.num_features
    bn.running_mean = rng.standard_normal(n).astype(np.float32)
    bn.running_var = (rng.random(n).astype(np.float32) + 0.5)
    bn.weight.data = rng.standard_normal(n).astype(np.float32)
    bn.bias.data = rng.standard_normal(n).astype(np.float32)
    return bn


def folding_backends():
    """Backends whose ``fold_pipeline()`` is live: fused + native."""
    params = []
    for name in list_backends():
        marks = []
        if name == "native" and not native_available():
            # Unavailable backends cannot even be instantiated to ask.
            marks.append(pytest.mark.skip(reason="native extension unavailable"))
        elif nn.get_backend(name).fold_pipeline() is None:
            continue
        params.append(pytest.param(name, marks=marks, id=name))
    return params


@pytest.fixture(autouse=True)
def _clean_fold_caches():
    default_pipeline().clear_caches()
    yield
    default_pipeline().clear_caches()


def conv_bn_relu_block(bias=True, relu=True, seed=3):
    rng = np.random.default_rng(seed)
    conv = nn.Conv2d(3, 8, 3, padding=1, bias=bias, rng=rng)
    bn = _randomize_bn(nn.BatchNorm2d(8), seed=seed + 1)
    layers = [conv, bn] + ([nn.ReLU()] if relu else [])
    return nn.Sequential(*layers).eval()


class TestPlanning:
    def test_plan_interleaves_folds_and_modules(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),
            _randomize_bn(nn.BatchNorm2d(8)),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(8 * 6 * 6, 16, rng=rng),
            nn.Tanh(),
            _randomize_bn(nn.BatchNorm1d(16), seed=2),
            nn.ReLU(),
        ).eval()
        plan = default_pipeline().plan(model.layers)
        assert plan is not None
        kinds = [
            item.pass_name if type(item) is FoldedOp else type(item).__name__
            for item in plan
        ]
        assert kinds == [
            "conv_bn_relu",
            "Flatten",
            "linear_activation",
            "bn_relu",
        ]
        # Folds cover every original layer exactly once, in order.
        covered = []
        for item in plan:
            covered.extend(item.layers if type(item) is FoldedOp else [item])
        assert covered == model.layers

    def test_plan_none_when_nothing_matches(self):
        model = nn.Sequential(nn.Flatten(), nn.Identity())
        assert default_pipeline().plan(model.layers) is None

    def test_conv_bn_wins_over_bn_relu_at_shared_position(self):
        # Both conv_bn_relu and bn_relu could claim the BatchNorm; the
        # pipeline registers the longer pattern first so it wins.
        block = conv_bn_relu_block(relu=True)
        plan = default_pipeline().plan(block.layers)
        assert len(plan) == 1
        assert plan[0].pass_name == "conv_bn_relu"
        assert len(plan[0].layers) == 3

    def test_training_bn_blocks_conv_fold(self):
        block = conv_bn_relu_block().train()
        assert ConvBNReLUPass().match(block.layers, 0) is None

    def test_training_bn_blocks_bn_relu_fold(self):
        bn = _randomize_bn(nn.BatchNorm2d(4)).train()
        assert BNReLUPass().match([bn, nn.ReLU()], 0) is None

    def test_hook_blocks_fold(self):
        block = conv_bn_relu_block()
        block.layers[1].forward_hook = lambda layer, out: None
        assert ConvBNReLUPass().match(block.layers, 0) is None

    def test_channel_mismatch_blocks_conv_fold(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv2d(3, 8, 3, rng=rng)
        bn = nn.BatchNorm2d(4).eval()
        assert ConvBNReLUPass().match([conv, bn], 0) is None

    def test_subclass_blocks_fold(self):
        class MyReLU(nn.ReLU):
            pass

        rng = np.random.default_rng(0)
        layers = [nn.Linear(4, 4, rng=rng), MyReLU()]
        assert LinearActivationPass().match(layers, 0) is None


class TestEquivalence:
    """Each fold matches the plain layer-by-layer path at atol<=1e-5."""

    @pytest.mark.parametrize("backend", folding_backends())
    @pytest.mark.parametrize("relu", [True, False])
    def test_conv_bn_fold(self, backend, relu):
        x = _x((4, 3, 10, 10), seed=7)
        block = conv_bn_relu_block(relu=relu)
        reference = block(x)  # grad-enabled: no folding
        with nn.use_backend(backend):
            with no_grad():
                out = block(x)
        np.testing.assert_allclose(out, reference, atol=1e-5)

    @pytest.mark.parametrize("backend", folding_backends())
    @pytest.mark.parametrize("dims", ["2d", "1d"])
    def test_bn_relu_fold(self, backend, dims):
        if dims == "2d":
            bn = _randomize_bn(nn.BatchNorm2d(6))
            x = _x((4, 6, 5, 5), seed=11)
        else:
            bn = _randomize_bn(nn.BatchNorm1d(6))
            x = _x((8, 6), seed=11)
        block = nn.Sequential(bn, nn.ReLU()).eval()
        reference = block(x)
        with nn.use_backend(backend):
            with no_grad():
                out = block(x)
        np.testing.assert_allclose(out, reference, atol=1e-5)

    @pytest.mark.parametrize("backend", folding_backends())
    @pytest.mark.parametrize(
        "activation", [nn.ReLU, nn.Tanh, nn.Sigmoid], ids=lambda a: a.__name__
    )
    def test_linear_activation_fold(self, backend, activation):
        rng = np.random.default_rng(13)
        block = nn.Sequential(nn.Linear(12, 7, rng=rng), activation()).eval()
        x = _x((5, 12), seed=13)
        reference = block(x)
        with nn.use_backend(backend):
            with no_grad():
                out = block(x)
        np.testing.assert_allclose(out, reference, atol=1e-5)

    def test_folded_layers_left_in_no_grad_state(self):
        x = _x((4, 3, 10, 10))
        block = conv_bn_relu_block()
        with nn.use_backend("fused"):
            with no_grad():
                block(x)
        with pytest.raises(RuntimeError, match="no-grad"):
            block.backward(np.ones((4, 8, 10, 10), dtype=np.float32))


class TestInvalidation:
    """Fold caches must never serve stale parameters."""

    def _run(self, block, x):
        with nn.use_backend("fused"):
            with no_grad():
                return block(x)

    def test_optimizer_step_invalidates_conv_fold(self):
        x = _x((2, 3, 8, 8), seed=17)
        block = conv_bn_relu_block(relu=False)
        conv = block.layers[0]
        before = self._run(block, x)
        optimizer = nn.SGD(block.parameters(), lr=0.5)
        optimizer.apply_gradient(
            conv.weight, np.ones_like(conv.weight.data)
        )
        after = self._run(block, x)
        expected = block(x)  # grad-enabled path reads the new weights
        np.testing.assert_allclose(after, expected, atol=1e-5)
        assert not np.allclose(after, before)

    def test_load_state_dict_invalidates_fold(self):
        x = _x((2, 3, 8, 8), seed=19)
        block = conv_bn_relu_block(relu=False)
        before = self._run(block, x)
        state = {
            name: value * 2.0 for name, value in block.state_dict().items()
        }
        block.load_state_dict(state)
        after = self._run(block, x)
        expected = block(x)
        np.testing.assert_allclose(after, expected, atol=1e-5)
        assert not np.allclose(after, before)

    def test_bn_stats_refresh_invalidates_fold(self):
        x = _x((4, 3, 8, 8), seed=23)
        block = conv_bn_relu_block(relu=False)
        bn = block.layers[1]
        before = self._run(block, x)
        version = bn.stats_version
        block.train()
        block(_x((4, 3, 8, 8), seed=29))  # refresh running stats
        block.eval()
        assert bn.stats_version > version
        after = self._run(block, x)
        expected = block(x)
        np.testing.assert_allclose(after, expected, atol=1e-5)
        assert not np.allclose(after, before)

    def test_bn_relu_cache_invalidates_on_weight_change(self):
        bn = _randomize_bn(nn.BatchNorm1d(6))
        block = nn.Sequential(bn, nn.ReLU()).eval()
        x = _x((8, 6), seed=31)
        before = self._run(block, x)
        bn.weight.data = bn.weight.data * 3.0
        bn.weight.bump_version()
        after = self._run(block, x)
        expected = block(x)
        np.testing.assert_allclose(after, expected, atol=1e-5)
        assert not np.allclose(after, before)


class TestFoldCache:
    def test_lookup_misses_on_version_change(self):
        cache = FoldCache()
        layer = nn.Identity()
        cache.store((layer,), (0,), "value")
        assert cache.lookup((layer,), (0,)) == "value"
        assert cache.lookup((layer,), (1,)) is None

    def test_weakref_eviction_after_gc(self):
        cache = FoldCache()
        layer = nn.Identity()
        cache.store((layer,), (0,), "value")
        assert len(cache) == 1
        del layer
        gc.collect()
        assert len(cache) == 0

    def test_pipeline_clear_caches(self):
        x = _x((2, 3, 8, 8))
        block = conv_bn_relu_block()
        with nn.use_backend("fused"):
            with no_grad():
                block(x)
        pipeline = default_pipeline()
        conv_pass = pipeline.passes[0]
        assert len(conv_pass.cache) == 1
        pipeline.clear_caches()
        assert len(conv_pass.cache) == 0

    def test_custom_pipeline_composition(self):
        pipeline = PassPipeline((LinearActivationPass(),))
        rng = np.random.default_rng(0)
        layers = [nn.Linear(4, 4, rng=rng), nn.ReLU()]
        plan = pipeline.plan(layers)
        assert len(plan) == 1 and plan[0].pass_name == "linear_activation"
        # conv+BN is not registered in this pipeline, so no fold there.
        block = conv_bn_relu_block()
        assert pipeline.plan(block.layers) is None
