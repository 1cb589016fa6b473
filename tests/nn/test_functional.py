"""Unit + property tests for repro.nn.functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


class TestPad2d:
    @pytest.mark.parametrize("fill_value", [0.0, -np.inf, 2.5])
    @pytest.mark.parametrize("padding", [1, 3])
    def test_matches_np_pad(self, padding, fill_value):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 5)).astype(np.float32)
        widths = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        expected = np.pad(x, widths, mode="constant", constant_values=fill_value)
        out = F.pad2d(x[:, :, ::-1], padding, fill_value)  # a non-contiguous view
        assert out.dtype == x.dtype and out.flags.c_contiguous
        np.testing.assert_array_equal(out, expected[:, :, ::-1])
        np.testing.assert_array_equal(F.pad2d(x, padding, fill_value), expected)

    def test_zero_padding_is_the_identity(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        assert F.pad2d(x, 0, -np.inf) is x


class TestIm2col:
    def test_shapes(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        cols, out_h, out_w = F.im2col(x, kernel=3, stride=1, padding=1)
        assert (out_h, out_w) == (8, 8)
        assert cols.shape == (2, 3 * 9, 64)

    def test_stride_reduces_output(self):
        x = np.ones((1, 1, 9, 9), dtype=np.float32)
        _, out_h, out_w = F.im2col(x, kernel=3, stride=2, padding=0)
        assert (out_h, out_w) == (4, 4)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        cols, out_h, out_w = F.im2col(x, 3, 1, 0)
        gemm = (w.reshape(3, -1) @ cols[0]).reshape(3, out_h, out_w)
        naive = np.zeros_like(gemm)
        for o in range(3):
            for i in range(out_h):
                for j in range(out_w):
                    naive[o, i, j] = (x[0, :, i : i + 3, j : j + 3] * w[o]).sum()
        np.testing.assert_allclose(gemm, naive, rtol=1e-4, atol=1e-4)

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float64)
        cols, _, _ = F.im2col(x, 3, 2, 1)
        y = rng.standard_normal(cols.shape)
        back = F.col2im(y, x.shape, 3, 2, 1)
        np.testing.assert_allclose((cols * y).sum(), (x * back).sum(), rtol=1e-9)

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, kernel=5, stride=1, padding=0)


class TestActivationHelpers:
    def test_sigmoid_extremes_are_stable(self):
        out = F.sigmoid(np.array([-1e4, 0.0, 1e4], dtype=np.float32))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-6)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((4, 7)).astype(np.float32)
        np.testing.assert_allclose(F.softmax(x).sum(axis=-1), 1.0, rtol=1e-5)

    def test_softmax_shift_invariant(self):
        x = np.random.default_rng(0).standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100), rtol=1e-4)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(1).standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_allclose(
            F.log_softmax(x), np.log(F.softmax(x)), rtol=1e-4, atol=1e-6
        )

    def test_one_hot_round_trip(self):
        labels = np.array([0, 2, 1])
        encoded = F.one_hot(labels, 3)
        assert encoded.shape == (3, 3)
        np.testing.assert_array_equal(encoded.argmax(axis=1), labels)

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)


class TestAdaptivePooling:
    def test_identity_when_sizes_match(self):
        x = np.random.default_rng(0).standard_normal((1, 2, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(F.adaptive_avg_pool2d(x, (4, 4)), x)

    def test_global_case_equals_mean(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 5, 7)).astype(np.float32)
        out = F.adaptive_avg_pool2d(x, (1, 1))
        np.testing.assert_allclose(out[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)

    def test_upsampling_replicates(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        out = F.adaptive_avg_pool2d(x, (4, 4))
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out[0, 0, :2, :2], x[0, 0, 0, 0])

    @given(
        in_size=st.integers(1, 16),
        out_size=st.integers(1, 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_splits_cover_input_exactly(self, in_size, out_size):
        splits = F.adaptive_pool_splits(in_size, out_size)
        assert len(splits) == out_size
        assert splits[0][0] == 0
        assert splits[-1][1] == in_size
        for start, end in splits:
            assert end > start

    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        out_h=st.integers(1, 40),
        out_w=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_separable_matches_window_loop_and_backward_is_adjoint(
        self, height, width, out_h, out_w
    ):
        rng = np.random.default_rng(height * 41 + width)
        x = rng.standard_normal((2, 3, height, width)).astype(np.float32)
        out = F.adaptive_avg_pool2d(x, (out_h, out_w))
        reference = np.empty((2, 3, out_h, out_w), dtype=np.float64)
        for i, (r0, r1) in enumerate(F.adaptive_pool_splits(height, out_h)):
            for j, (c0, c1) in enumerate(F.adaptive_pool_splits(width, out_w)):
                reference[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(
                    axis=(2, 3), dtype=np.float64
                )
        np.testing.assert_allclose(out, reference, atol=1e-5)
        # <P x, y> == <x, P^T y>: backward is the exact transpose.
        y = rng.standard_normal(out.shape).astype(np.float32)
        grad_in = F.adaptive_avg_pool2d_backward(y, x.shape)
        assert grad_in.shape == x.shape
        np.testing.assert_allclose(
            np.vdot(out.astype(np.float64), y),
            np.vdot(x.astype(np.float64), grad_in),
            rtol=1e-4,
            atol=1e-3,
        )

    def test_cached_operator_is_read_only(self):
        with pytest.raises(ValueError):
            F.adaptive_pool_operator(7, 3)[0, 0] = 1.0

    def test_backward_preserves_gradient_mass(self):
        """Average pooling backward distributes each grad unit exactly once."""
        rng = np.random.default_rng(3)
        grad_out = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        grad_in = F.adaptive_avg_pool2d_backward(grad_out, (1, 1, 7, 7))
        # Each output cell's gradient is spread with weights summing to 1.
        np.testing.assert_allclose(grad_in.sum(), grad_out.sum(), rtol=1e-5)


@given(
    batch=st.integers(1, 3),
    channels=st.integers(1, 4),
    size=st.integers(3, 9),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 1),
)
@settings(max_examples=40, deadline=None)
def test_im2col_col2im_adjoint_property(batch, channels, size, kernel, stride, padding):
    """Adjoint identity holds for arbitrary conv geometry."""
    if size + 2 * padding < kernel:
        return
    rng = np.random.default_rng(batch * 100 + size)
    x = rng.standard_normal((batch, channels, size, size))
    cols, _, _ = F.im2col(x, kernel, stride, padding)
    y = rng.standard_normal(cols.shape)
    back = F.col2im(y, x.shape, kernel, stride, padding)
    np.testing.assert_allclose((cols * y).sum(), (x * back).sum(), rtol=1e-7)
