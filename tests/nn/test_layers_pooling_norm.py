"""Tests for pooling and normalization layers, with gradchecks."""

import numpy as np
import pytest

from repro import nn
from tests.helpers import linear_probe_loss, max_relative_error, numerical_gradient

RNG = np.random.default_rng(7)


class TestMaxPool:
    def test_forward_matches_naive(self):
        x = RNG.standard_normal((1, 1, 4, 4)).astype(np.float32)
        out = nn.MaxPool2d(2)(x)
        expected = np.array(
            [[x[0, 0, i : i + 2, j : j + 2].max() for j in (0, 2)] for i in (0, 2)]
        )
        np.testing.assert_allclose(out[0, 0], expected)

    def test_backward_routes_to_argmax(self):
        pool = nn.MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        pool.forward(x)
        grad = pool.backward(np.array([[[[5.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(grad, [[[[0, 0], [0, 5.0]]]])

    def test_gradcheck(self):
        pool = nn.MaxPool2d(2, stride=2)
        x = RNG.standard_normal((2, 2, 6, 6)).astype(np.float32)
        out = pool.forward(x)
        probe = RNG.standard_normal(out.shape).astype(np.float32)
        pool.forward(x)
        grad_in = pool.backward(probe)
        loss = linear_probe_loss(pool, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 1e-2

    def test_all_negative_window_with_padding(self):
        """Padded zeros must not beat real negative values."""
        pool = nn.MaxPool2d(3, stride=1, padding=1)
        x = -np.ones((1, 1, 3, 3), dtype=np.float32)
        out = pool(x)
        assert (out <= 0).all()

    def test_padded_real_zero_wins_over_negative(self):
        """Regression: window [-5, 0] must return 0, not -5.

        The old padding proxy (``cols == 0.0 -> -inf``) rewrote *real*
        zero activations (ubiquitous after ReLU) to -inf, so they could
        never win the max, and routed gradient into the padding ring
        where col2im drops it.
        """
        pool = nn.MaxPool2d(2, stride=2, padding=1)
        x = np.array([[[[-5.0, 0.0], [-1.0, -2.0]]]], dtype=np.float32)
        out = pool(x)
        np.testing.assert_array_equal(out[0, 0], [[-5.0, 0.0], [-1.0, -2.0]])
        grad = pool.backward(np.ones_like(out))
        # Each corner window holds exactly one real element: all four
        # units of gradient must reach the input, none lost to padding.
        np.testing.assert_array_equal(grad[0, 0], np.ones((2, 2)))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_gradcheck_with_padding(self, sign):
        """FD gradcheck with padded windows, all-negative and mixed."""
        pool = nn.MaxPool2d(3, stride=2, padding=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        if sign < 0:
            x = -np.abs(x)  # every window all-negative
        out = pool.forward(x)
        probe = rng.standard_normal(out.shape).astype(np.float32)
        pool.forward(x)
        grad_in = pool.backward(probe)
        loss = linear_probe_loss(pool, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 1e-2

    def test_all_zero_windows_with_padding(self):
        """All-zero inputs (post-ReLU dead activations): output is 0 and
        the full gradient mass survives (ties make FD ill-defined, so
        assert conservation instead)."""
        pool = nn.MaxPool2d(3, stride=2, padding=1)
        x = np.zeros((1, 2, 5, 5), dtype=np.float32)
        out = pool(x)
        np.testing.assert_array_equal(out, np.zeros_like(out))
        grad_out = np.ones_like(out)
        grad_in = pool.backward(grad_out)
        assert np.isfinite(grad_in).all()
        assert grad_in.sum() == grad_out.sum()

    def test_excessive_padding_rejected(self):
        with pytest.raises(ValueError):
            nn.MaxPool2d(2, padding=2)


class TestAvgPool:
    def test_forward_is_mean(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = nn.AvgPool2d(2)(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_gradcheck(self):
        pool = nn.AvgPool2d(2)
        x = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = pool.forward(x)
        probe = RNG.standard_normal(out.shape).astype(np.float32)
        pool.forward(x)
        grad_in = pool.backward(probe)
        loss = linear_probe_loss(pool, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 1e-2


class TestGlobalAndAdaptivePool:
    def test_global_equals_mean(self):
        x = RNG.standard_normal((2, 3, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(
            nn.GlobalAvgPool2d()(x), x.mean(axis=(2, 3)), rtol=1e-6
        )

    def test_global_gradcheck(self):
        pool = nn.GlobalAvgPool2d()
        x = RNG.standard_normal((2, 2, 3, 3)).astype(np.float32)
        probe = RNG.standard_normal((2, 2)).astype(np.float32)
        pool.forward(x)
        grad_in = pool.backward(probe)
        loss = linear_probe_loss(pool, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 1e-2

    def test_adaptive_gradcheck(self):
        pool = nn.AdaptiveAvgPool2d(3)
        x = RNG.standard_normal((1, 2, 7, 5)).astype(np.float32)
        out = pool.forward(x)
        assert out.shape == (1, 2, 3, 3)
        probe = RNG.standard_normal(out.shape).astype(np.float32)
        pool.forward(x)
        grad_in = pool.backward(probe)
        loss = linear_probe_loss(pool, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 1e-2


class TestBatchNorm2d:
    def test_normalizes_in_train_mode(self):
        bn = nn.BatchNorm2d(3)
        x = RNG.standard_normal((8, 3, 4, 4)).astype(np.float32) * 5 + 2
        out = bn(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1, atol=1e-2)

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        x = RNG.standard_normal((16, 2, 4, 4)).astype(np.float32)
        for _ in range(50):
            bn(x)
        bn.eval()
        out_eval = bn(x)
        bn.train()
        out_train = bn(x)
        np.testing.assert_allclose(out_eval, out_train, atol=0.2)

    def test_gradcheck_with_affine(self):
        bn = nn.BatchNorm2d(2)
        bn.weight.data = RNG.standard_normal(2).astype(np.float32)
        bn.bias.data = RNG.standard_normal(2).astype(np.float32)
        x = RNG.standard_normal((4, 2, 3, 3)).astype(np.float32)
        probe = RNG.standard_normal(x.shape).astype(np.float32)
        bn.forward(x)
        grad_in = bn.backward(probe)
        loss = linear_probe_loss(bn, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2
        bn.zero_grad()
        bn.forward(x)
        bn.backward(probe)
        assert max_relative_error(bn.weight.grad, numerical_gradient(loss, bn.weight.data)) < 2e-2

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(3)(np.zeros((2, 4, 3, 3), dtype=np.float32))

    def test_running_var_stores_unbiased_estimate(self):
        """PyTorch semantics: running_var gets the n/(n-1) estimate."""
        bn = nn.BatchNorm2d(2, momentum=1.0)  # running stats = batch stats
        x = RNG.standard_normal((4, 2, 3, 3)).astype(np.float32) * 2 + 1
        bn(x)
        np.testing.assert_allclose(
            bn.running_var, x.var(axis=(0, 2, 3), ddof=1), rtol=1e-5
        )
        np.testing.assert_allclose(
            bn.running_mean, x.mean(axis=(0, 2, 3)), rtol=1e-5
        )

    def test_normalization_still_uses_biased_variance(self):
        bn = nn.BatchNorm2d(1, eps=0.0)
        x = RNG.standard_normal((8, 1, 2, 2)).astype(np.float32)
        out = bn(x)
        expected = (x - x.mean()) / np.sqrt(x.var())
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_gradcheck_eval_path(self):
        """Backward through the running-stats (eval) normalization."""
        bn = nn.BatchNorm2d(2)
        warm = RNG.standard_normal((8, 2, 3, 3)).astype(np.float32)
        for _ in range(3):
            bn(warm)
        bn.eval()
        x = RNG.standard_normal((4, 2, 3, 3)).astype(np.float32)
        probe = RNG.standard_normal(x.shape).astype(np.float32)
        bn.forward(x)
        grad_in = bn.backward(probe)
        loss = linear_probe_loss(bn, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2


class TestBatchNorm1dLayerNorm:
    def test_bn1d_running_var_unbiased(self):
        bn = nn.BatchNorm1d(3, momentum=1.0)
        x = RNG.standard_normal((6, 3)).astype(np.float32)
        bn(x)
        np.testing.assert_allclose(bn.running_var, x.var(axis=0, ddof=1), rtol=1e-5)

    def test_bn1d_gradcheck(self):
        bn = nn.BatchNorm1d(4)
        bn.weight.data = RNG.standard_normal(4).astype(np.float32)
        x = RNG.standard_normal((6, 4)).astype(np.float32)
        probe = RNG.standard_normal(x.shape).astype(np.float32)
        bn.forward(x)
        grad_in = bn.backward(probe)
        loss = linear_probe_loss(bn, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2

    def test_layernorm_normalizes_last_dim(self):
        ln = nn.LayerNorm(8)
        x = RNG.standard_normal((2, 3, 8)).astype(np.float32) * 3 + 1
        out = ln(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-4)

    def test_layernorm_gradcheck(self):
        ln = nn.LayerNorm(5)
        ln.weight.data = RNG.standard_normal(5).astype(np.float32)
        x = RNG.standard_normal((3, 4, 5)).astype(np.float32)
        probe = RNG.standard_normal(x.shape).astype(np.float32)
        ln.forward(x)
        grad_in = ln.backward(probe)
        loss = linear_probe_loss(ln, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2
