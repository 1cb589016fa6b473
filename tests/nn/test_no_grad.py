"""Tests for the forward-only (no-grad) execution mode.

Covers, per layer and per backend: bitwise equality of no-grad vs
grad-enabled training-mode forwards, verified cache absence, the
backward-after-no-grad error, workspace-pool cleanliness, and the
conv+BN(+ReLU) fold — now a pass in ``repro.nn.passes`` consumed by
every fast backend — with equivalence, invalidation on GP updates and
on running-stat refreshes, and hook/train-mode bail-outs.  Every mini
zoo model runs the validation path (eval mode under no_grad) on both
backends against its grad-enabled forward.
(``tests/nn/test_passes.py`` covers the other folds and the pipeline
machinery itself.)
"""

import numpy as np
import pytest

from repro import nn
from repro.models import MINI_BUILDERS, build_mini
from repro.nn.backend import FusedBackend
from repro.nn.module import NO_GRAD, is_grad_enabled, no_grad
from repro.nn.passes import default_pipeline


def _conv_fold_cache():
    pipeline = default_pipeline()
    return next(p for p in pipeline.passes if p.name == "conv_bn_relu").cache

BACKENDS = ["numpy", "fused"]
ATOL = 1e-5


def _x(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def _layer_cases():
    """(name, layer factory, input shape) per layer type.

    The factory is called twice per test (grad / no-grad instance), so
    every rng is explicitly seeded to make the two instances identical.
    """
    return [
        ("conv3x3", lambda: nn.Conv2d(3, 6, 3, padding=1, rng=np.random.default_rng(1)), (4, 3, 9, 9)),
        ("conv1x1", lambda: nn.Conv2d(5, 7, 1, rng=np.random.default_rng(2)), (4, 5, 6, 6)),
        ("linear", lambda: nn.Linear(6, 4, rng=np.random.default_rng(3)), (8, 6)),
        ("flatten", lambda: nn.Flatten(), (3, 4, 5)),
        ("maxpool_padded", lambda: nn.MaxPool2d(3, stride=2, padding=1), (3, 4, 9, 9)),
        ("avgpool", lambda: nn.AvgPool2d(2), (3, 4, 8, 8)),
        ("adaptive_pool", lambda: nn.AdaptiveAvgPool2d(3), (2, 4, 7, 7)),
        ("global_pool", lambda: nn.GlobalAvgPool2d(), (2, 4, 5, 5)),
        ("batchnorm2d", lambda: nn.BatchNorm2d(5), (6, 5, 4, 4)),
        ("batchnorm1d", lambda: nn.BatchNorm1d(7), (12, 7)),
        ("layernorm", lambda: nn.LayerNorm(9), (3, 6, 9)),
        ("relu", lambda: nn.ReLU(), (4, 6)),
        ("relu6", lambda: nn.ReLU6(), (4, 6)),
        ("sigmoid", lambda: nn.Sigmoid(), (4, 6)),
        ("tanh", lambda: nn.Tanh(), (4, 6)),
        ("attention", lambda: nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(5)), (2, 5, 8)),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name,factory,shape",
    _layer_cases(),
    ids=[c[0] for c in _layer_cases()],
)
def test_no_grad_forward_bitwise_equal(backend, name, factory, shape):
    """A no-grad forward returns the training-mode forward bit for bit."""
    x = _x(shape, seed=11)
    with nn.use_backend(backend):
        reference = factory()(x)
        layer = factory()
        with no_grad():
            out = layer(x)
    assert np.array_equal(reference, out)
    assert layer._saved is NO_GRAD


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name,factory,shape",
    _layer_cases(),
    ids=[c[0] for c in _layer_cases()],
)
def test_backward_after_no_grad_raises(backend, name, factory, shape):
    x = _x(shape, seed=3)
    with nn.use_backend(backend):
        layer = factory()
        with no_grad():
            out = layer(x)
        with pytest.raises(RuntimeError, match="no-grad"):
            layer.backward(np.ones_like(out))


class TestGradMode:
    def test_default_enabled_and_scope_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():  # reentrant
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_mode_is_local_to_the_thread_that_set_it(self):
        """A thread started inside a no-grad scope begins grad-enabled,
        and a scope it enters does not change its parent's mode."""
        import threading

        seen = {}
        entered, release = threading.Event(), threading.Event()

        def child():
            seen["at start"] = is_grad_enabled()
            with no_grad():
                entered.set()
                release.wait(5)
                seen["inside its own scope"] = is_grad_enabled()
            seen["after its scope"] = is_grad_enabled()

        with no_grad():
            thread = threading.Thread(target=child)
            thread.start()
            assert entered.wait(5)
        # The child still sits inside its no_grad(); this thread left its own.
        assert is_grad_enabled()
        release.set()
        thread.join(5)
        assert seen == {
            "at start": True, "inside its own scope": False, "after its scope": True,
        }

    def test_forward_hooks_still_fire(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        seen = []
        layer.forward_hook = lambda module, output: seen.append(output.shape)
        with no_grad():
            layer(_x((2, 4)))
        assert seen == [(2, 3)]

    def test_grad_forward_after_no_grad_restores_backward(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = _x((2, 4))
        with no_grad():
            layer(x)
        out = layer(x)
        layer.backward(np.ones_like(out))  # does not raise
        assert layer.weight.grad is not None

    def test_bn_training_stats_still_update_under_no_grad(self):
        """no_grad is orthogonal to train/eval: batch stats semantics."""
        bn = nn.BatchNorm2d(3)
        before = bn.running_mean.copy()
        version = bn.stats_version
        with no_grad():
            bn(_x((4, 3, 5, 5), seed=2) + 1.0)
        assert not np.array_equal(bn.running_mean, before)
        assert bn.stats_version == version + 1


class TestModelLevel:
    def _model(self, seed=1):
        nn.init.reset_layer_rng(0)
        return build_mini("ResNet50", 10, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_train_mode_model_forward_bitwise_equal(self, backend):
        x = _x((4, 3, 16, 16), seed=5)
        with nn.use_backend(backend):
            reference = self._model()(x)
            model = self._model()
            with no_grad():
                out = model(x)
        assert np.array_equal(reference, out)

    def test_no_grad_model_leaves_workspace_pool_clean(self):
        backend = FusedBackend()
        x = _x((4, 3, 16, 16), seed=5)
        with nn.use_backend(backend):
            model = self._model()
            with no_grad():
                model(x)
        assert backend.pool.outstanding == 0
        # Warm pool: a second no-grad forward allocates nothing new.
        backend.pool.reset_stats()
        with nn.use_backend(backend):
            with no_grad():
                model(x)
        assert backend.pool.misses == 0
        assert backend.pool.outstanding == 0

    def test_model_backward_after_no_grad_raises(self):
        model = self._model()
        with no_grad():
            out = model(_x((2, 3, 16, 16)))
        with pytest.raises(RuntimeError, match="no-grad"):
            model.backward(np.ones_like(out))


def _trained_eval_mini(name):
    """A mini-zoo model in eval mode whose BatchNorm running statistics
    came from one training-mode forward, so a conv+BN fold is not the
    identity transform."""
    model = build_mini(name, 10, rng=np.random.default_rng(3))
    model(_x((4, 3, 16, 16), seed=8) + 0.5)
    return model.eval()


class TestEveryMiniModel:
    """The validation path (eval mode, no grad) on every zoo topology."""

    @pytest.fixture(autouse=True)
    def _clean_fold_caches(self):
        default_pipeline().clear_caches()
        yield
        default_pipeline().clear_caches()

    @pytest.mark.parametrize("name", sorted(MINI_BUILDERS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eval_no_grad_forward_matches_grad_forward(self, backend, name):
        """numpy never folds, so it matches bit for bit; the fused backend
        folds every conv+BN pair and matches to float32 rounding."""
        x = _x((3, 3, 16, 16), seed=6)
        model = _trained_eval_mini(name)
        reference = model(x)  # grad-enabled: layer by layer, no folding
        with nn.use_backend(backend):
            with no_grad():
                out = model(x)
        assert out.shape == (3, 10)
        if backend == "numpy":
            assert np.array_equal(out, reference)
            assert not len(_conv_fold_cache())
        else:
            assert len(_conv_fold_cache())
            np.testing.assert_allclose(out, reference, rtol=1e-4, atol=ATOL)

    @pytest.mark.parametrize("name", sorted(MINI_BUILDERS))
    def test_backward_after_eval_no_grad_forward_raises(self, name):
        model = _trained_eval_mini(name)
        with no_grad():
            out = model(_x((2, 3, 16, 16)))
        # No module kept a training cache for backward to read.
        assert all(m._saved is None or m._saved is NO_GRAD for m in model.modules())
        with pytest.raises(RuntimeError, match="no-grad"):
            model.backward(np.ones_like(out))


class TestFoldedConvBN:
    @pytest.fixture(autouse=True)
    def _clean_fold_caches(self):
        default_pipeline().clear_caches()
        yield
        default_pipeline().clear_caches()

    def _block(self, relu=True, bias=False, seed=0):
        nn.init.reset_layer_rng(seed)
        conv = nn.Conv2d(3, 8, 3, padding=1, bias=bias, rng=np.random.default_rng(1))
        bn = nn.BatchNorm2d(8)
        # Non-trivial running stats / affine params so folding is exercised.
        rng = np.random.default_rng(2)
        bn.running_mean = rng.standard_normal(8).astype(np.float32)
        bn.running_var = (rng.random(8).astype(np.float32) + 0.5)
        bn.weight.data = rng.standard_normal(8).astype(np.float32)
        bn.bias.data = rng.standard_normal(8).astype(np.float32)
        layers = [conv, bn] + ([nn.ReLU()] if relu else [])
        return nn.Sequential(*layers).eval()

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("bias", [True, False])
    def test_folded_matches_unfused_reference(self, relu, bias):
        x = _x((4, 3, 10, 10), seed=9)
        block = self._block(relu=relu, bias=bias)
        reference = block(x)  # grad-enabled: layer-by-layer, no folding
        backend = FusedBackend()
        with nn.use_backend(backend):
            with no_grad():
                out = block(x)
        assert len(_conv_fold_cache()) == 1  # the fold path actually ran
        np.testing.assert_allclose(out, reference, atol=ATOL)

    def test_fold_invalidated_by_gp_update(self):
        x = _x((4, 3, 10, 10), seed=9)
        block = self._block()
        conv = block[0]
        backend = FusedBackend()
        with nn.use_backend(backend):
            with no_grad():
                stale = block(x)
            # A Phase-GP style predicted update through an optimizer.
            optimizer = nn.SGD([conv.weight], lr=0.5, momentum=0.0)
            optimizer.apply_gradient(
                conv.weight, np.ones_like(conv.weight.data)
            )
            with no_grad():
                refolded = block(x)
        reference = block(x)  # unfused, current weights
        np.testing.assert_allclose(refolded, reference, atol=ATOL)
        assert np.abs(refolded - stale).max() > 0.1

    def test_fold_invalidated_by_running_stats_refresh(self):
        x = _x((4, 3, 10, 10), seed=9)
        block = self._block()
        backend = FusedBackend()
        with nn.use_backend(backend):
            with no_grad():
                block(x)
            # A training-mode forward refreshes running stats.
            block.train()
            block(x + 1.0)
            block.eval()
            with no_grad():
                refolded = block(x)
        reference = block(x)
        np.testing.assert_allclose(refolded, reference, atol=ATOL)

    def test_no_fold_when_bn_in_training_mode(self):
        """Batch-stat normalization cannot fold; semantics win."""
        x = _x((4, 3, 10, 10), seed=9)
        block = self._block().train()
        reference_block = self._block().train()
        backend = FusedBackend()
        with nn.use_backend(backend):
            with no_grad():
                out = block(x)
            assert not len(_conv_fold_cache())
            reference = reference_block(x)
        assert np.array_equal(out, reference)

    def test_no_fold_when_hook_installed(self):
        """A forward hook needs the conv's own output; folding bails."""
        x = _x((4, 3, 10, 10), seed=9)
        block = self._block()
        seen = []
        block[0].forward_hook = lambda module, output: seen.append(output)
        backend = FusedBackend()
        with nn.use_backend(backend):
            with no_grad():
                block(x)
        assert not len(_conv_fold_cache())
        assert len(seen) == 1  # the conv output materialized for the hook

    def test_numpy_backend_never_folds(self):
        x = _x((4, 3, 10, 10), seed=9)
        block = self._block()
        reference = block(x)
        with nn.use_backend("numpy"):
            with no_grad():
                out = block(x)
        assert np.array_equal(out, reference)

    def test_pipeline_clear_caches_drops_fold(self):
        x = _x((4, 3, 10, 10), seed=9)
        block = self._block()
        backend = FusedBackend()
        with nn.use_backend(backend):
            with no_grad():
                block(x)
            assert len(_conv_fold_cache())
            default_pipeline().clear_caches()
            assert not len(_conv_fold_cache())


class TestParameterVersions:
    def test_optimizer_steps_bump_versions(self):
        for optimizer_cls in (nn.SGD, nn.Adam):
            param = nn.Parameter(np.ones(3, dtype=np.float32))
            optimizer = optimizer_cls([param], lr=0.1)
            assert param.version == 0
            param.accumulate_grad(np.ones(3, dtype=np.float32))
            optimizer.step()
            assert param.version == 1
            optimizer.apply_gradient(param, np.ones(3, dtype=np.float32))
            assert param.version == 2

    def test_load_state_dict_bumps_versions(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        state = layer.state_dict()
        before = layer.weight.version
        layer.load_state_dict(state)
        assert layer.weight.version == before + 1
