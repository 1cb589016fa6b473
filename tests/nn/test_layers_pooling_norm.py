"""Tests for pooling and normalization layers, with gradchecks."""

import numpy as np
import pytest

from repro import nn
from repro.nn.layers.norm import BN_MOMENTUM, NORM_EPS
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
        pool = nn.MaxPool2d(2)
        x = RNG.standard_normal((2, 2, 6, 6)).astype(np.float32)
        out = pool.forward(x)
        probe = RNG.standard_normal(out.shape).astype(np.float32)
        pool.forward(x)
        grad_in = pool.backward(probe)
        loss = linear_probe_loss(pool, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 1e-2

    def test_all_negative_windows_return_their_max(self):
        x = -np.arange(1, 17, dtype=np.float32).reshape(1, 1, 4, 4)
        pool = nn.MaxPool2d(2)
        out = pool(x)
        np.testing.assert_array_equal(out[0, 0], [[-1.0, -3.0], [-9.0, -11.0]])
        grad = pool.backward(np.ones_like(out))
        expected = np.zeros((4, 4), dtype=np.float32)
        expected[0, 0] = expected[0, 2] = expected[2, 0] = expected[2, 2] = 1.0
        np.testing.assert_array_equal(grad[0, 0], expected)

    def test_all_zero_windows_route_each_unit_to_one_input(self):
        """Dead (post-ReLU) windows tie everywhere: each window still
        hands its whole gradient to exactly one input."""
        pool = nn.MaxPool2d(2)
        x = np.zeros((2, 2, 4, 4), dtype=np.float32)
        out = pool(x)
        np.testing.assert_array_equal(out, np.zeros_like(out))
        grad_out = np.arange(1, out.size + 1, dtype=np.float32).reshape(out.shape)
        grad_in = pool.backward(grad_out)
        windows = grad_in.reshape(2, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        windows = windows.reshape(2, 2, 2, 2, 4)
        assert ((windows != 0).sum(axis=-1) == 1).all()
        np.testing.assert_array_equal(windows.sum(axis=-1), grad_out)

    def test_rows_past_the_last_window_get_no_gradient(self):
        """A 5x5 input under a 2x2 window pools its leading 4x4 block;
        the trailing row and column reach no window."""
        x = np.random.default_rng(5).standard_normal((1, 1, 5, 5)).astype(np.float32)
        pool = nn.MaxPool2d(2)
        out = pool(x)
        np.testing.assert_array_equal(out, nn.MaxPool2d(2)(x[:, :, :4, :4]))
        grad = pool.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert not grad[0, 0, 4, :].any() and not grad[0, 0, :, 4].any()
        assert grad.sum() == out.size

    def test_kernel_beyond_uint8_index_rejected(self):
        """The window index is a uint8: 16x16 positions is the limit."""
        nn.MaxPool2d(16)
        with pytest.raises(ValueError, match="at most 16"):
            nn.MaxPool2d(17)


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
        bn = nn.BatchNorm2d(2)  # running stats start at mean 0, var 1
        x = RNG.standard_normal((4, 2, 3, 3)).astype(np.float32) * 2 + 1
        bn(x)
        momentum = BN_MOMENTUM
        np.testing.assert_allclose(
            bn.running_var,
            (1 - momentum) + momentum * x.var(axis=(0, 2, 3), ddof=1),
            rtol=1e-5,
        )
        np.testing.assert_allclose(
            bn.running_mean, momentum * x.mean(axis=(0, 2, 3)), rtol=1e-5
        )

    def test_normalization_still_uses_biased_variance(self):
        bn = nn.BatchNorm2d(1)
        x = RNG.standard_normal((8, 1, 2, 2)).astype(np.float32)
        out = bn(x)
        expected = (x - x.mean()) / np.sqrt(x.var() + NORM_EPS)
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
        bn = nn.BatchNorm1d(3)
        x = RNG.standard_normal((6, 3)).astype(np.float32)
        bn(x)
        np.testing.assert_allclose(
            bn.running_var,
            (1 - BN_MOMENTUM) + BN_MOMENTUM * x.var(axis=0, ddof=1),
            rtol=1e-5,
        )

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
