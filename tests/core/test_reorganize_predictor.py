"""Tests for tensor reorganization (§3.6) and the gradient predictor."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core import GradientPredictor
from repro.core import predictor as predictor_module
from repro.core.metrics import mean_absolute_percentage_error
from repro.core.predictor import PredictorNetwork
from repro.core import reorganize

RNG = np.random.default_rng(29)


class TestReorganize:
    def test_conv_activation_reorganization(self):
        """(batch, out_ch, H, W) -> (out_ch, 1, H, W) via batch mean."""
        conv = nn.Conv2d(3, 8, 3, rng=np.random.default_rng(0))
        output = RNG.standard_normal((4, 8, 5, 5)).astype(np.float32)
        reorganized = reorganize.reorganize_activations(conv, output)
        assert reorganized.shape == (8, 1, 5, 5)
        np.testing.assert_allclose(
            reorganized[:, 0], output.mean(axis=0), rtol=1e-6
        )

    def test_linear_activation_reorganization(self):
        fc = nn.Linear(4, 6, rng=np.random.default_rng(0))
        output = RNG.standard_normal((8, 6)).astype(np.float32)
        reorganized = reorganize.reorganize_activations(fc, output)
        assert reorganized.shape == (6, 1, 1, 1)

    def test_sequence_linear_uses_seq_as_width(self):
        fc = nn.Linear(4, 6, rng=np.random.default_rng(0))
        output = RNG.standard_normal((8, 10, 6)).astype(np.float32)
        reorganized = reorganize.reorganize_activations(fc, output)
        assert reorganized.shape == (6, 1, 1, 10)

    @given(
        kind=st.sampled_from(["conv", "linear", "sequence"]),
        batch=st.integers(1, 40),
        units=st.integers(1, 9),
        extent=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        dtype=st.sampled_from([np.float32, np.float64]),
        magnitude=st.integers(-20, 20),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_average_is_bitwise_ndarray_mean(
        self, kind, batch, units, extent, dtype, magnitude, seed
    ):
        """The reorganized plane holds ``output.mean(axis=0)`` bit for
        bit, at any batch size, scale and float dtype."""
        rng = np.random.default_rng(seed)
        if kind == "conv":
            layer = nn.Conv2d(1, units, 1, rng=rng)
            shape = (batch, units, *extent)
        else:
            layer = nn.Linear(1, units, rng=rng)
            shape = (batch, units) if kind == "linear" else (batch, extent[1], units)
        output = (rng.standard_normal(shape) * 2.0**magnitude).astype(dtype)
        mean = output.mean(axis=0)
        if kind == "conv":
            expected = mean[:, None]
        elif kind == "linear":
            expected = mean[:, None, None, None]
        else:
            expected = mean.T[:, None, None, :]
        reorganized = reorganize.reorganize_activations(layer, output)
        assert reorganized.dtype == expected.dtype == dtype
        assert reorganized.shape == expected.shape
        assert (
            np.ascontiguousarray(reorganized).tobytes()
            == np.ascontiguousarray(expected).tobytes()
        )

    def test_unsupported_layer_rejected(self):
        with pytest.raises(TypeError):
            reorganize.reorganize_activations(nn.ReLU(), np.zeros((1, 2)))

    def test_flatten_unflatten_round_trip_conv(self):
        conv = nn.Conv2d(3, 4, 3, rng=np.random.default_rng(1))
        w_grad = RNG.standard_normal(conv.weight.shape).astype(np.float32)
        b_grad = RNG.standard_normal(4).astype(np.float32)
        rows = reorganize.flatten_gradients(conv, w_grad, b_grad)
        assert rows.shape == (4, 3 * 9 + 1)
        w_back, b_back = reorganize.unflatten_gradients(conv, rows)
        np.testing.assert_array_equal(w_back, w_grad)
        np.testing.assert_array_equal(b_back, b_grad)

    def test_flatten_unflatten_round_trip_linear_no_bias(self):
        fc = nn.Linear(5, 3, bias=False, rng=np.random.default_rng(2))
        w_grad = RNG.standard_normal(fc.weight.shape).astype(np.float32)
        rows = reorganize.flatten_gradients(fc, w_grad, None)
        assert rows.shape == (3, 5)
        w_back, b_back = reorganize.unflatten_gradients(fc, rows)
        np.testing.assert_array_equal(w_back, w_grad)
        assert b_back is None

    def test_missing_bias_grad_rejected(self):
        conv = nn.Conv2d(2, 2, 1)
        with pytest.raises(ValueError):
            reorganize.flatten_gradients(
                conv, np.zeros(conv.weight.shape, dtype=np.float32), None
            )

    def test_bad_row_shape_rejected(self):
        conv = nn.Conv2d(2, 2, 1)
        with pytest.raises(ValueError):
            reorganize.unflatten_gradients(conv, np.zeros((2, 7), dtype=np.float32))


class TestPredictorNetwork:
    def test_output_shape_independent_of_input_spatial_size(self):
        net = PredictorNetwork(max_row=20, rng=np.random.default_rng(0))
        for h, w in ((16, 16), (3, 3), (1, 1), (1, 9)):
            out = net(RNG.standard_normal((5, 1, h, w)).astype(np.float32))
            assert out.shape == (5, 20)

    def test_backward_round_trip(self):
        net = PredictorNetwork(max_row=10, rng=np.random.default_rng(1))
        x = RNG.standard_normal((3, 1, 6, 6)).astype(np.float32)
        out = net.forward(x)
        grad_in = net.backward(np.ones_like(out))
        assert grad_in.shape == x.shape


class TestGradientPredictor:
    def _conv_setup(self):
        conv = nn.Conv2d(2, 4, 3, rng=np.random.default_rng(0))
        x = RNG.standard_normal((4, 2, 6, 6)).astype(np.float32)
        out = conv.forward(x)
        conv.backward(np.ones_like(out))
        return conv, out

    def test_for_model_sizes_to_largest_layer(self):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, rng=np.random.default_rng(0)),
            nn.Conv2d(4, 8, 3, rng=np.random.default_rng(0)),
        )
        predictor = GradientPredictor.for_model(model)
        assert predictor.network.max_row == 4 * 9 + 1

    def test_for_model_requires_predictable_layers(self):
        with pytest.raises(ValueError):
            GradientPredictor.for_model(nn.Sequential(nn.ReLU()))

    def test_predict_shapes_match_parameters(self):
        conv, out = self._conv_setup()
        predictor = GradientPredictor(max_row=conv.gradient_size())
        w_grad, b_grad = predictor.predict(conv, out)
        assert w_grad.shape == conv.weight.shape
        assert b_grad.shape == conv.bias.shape

    def test_oversized_layer_rejected(self):
        conv, out = self._conv_setup()
        predictor = GradientPredictor(max_row=conv.gradient_size() - 1)
        with pytest.raises(ValueError):
            predictor.predict(conv, out)

    def test_train_step_reduces_mse_on_fixed_target(self):
        """Repeated training on a constant (activation, gradient) pair
        must drive the prediction toward that gradient."""
        conv, out = self._conv_setup()
        predictor = GradientPredictor(max_row=conv.gradient_size(), lr=5e-3)
        w_grad = conv.weight.grad
        b_grad = conv.bias.grad
        first_mse, _ = predictor.train_step(conv, out, w_grad, b_grad)
        for _ in range(100):
            last_mse, _ = predictor.train_step(conv, out, w_grad, b_grad)
        assert last_mse < first_mse * 0.5

    def test_scale_tracking_updates(self):
        conv, out = self._conv_setup()
        predictor = GradientPredictor(max_row=conv.gradient_size())
        assert predictor._scale_for(conv) == 1.0
        predictor.train_step(conv, out, conv.weight.grad, conv.bias.grad)
        assert predictor._scale_for(conv) != 1.0

    def test_predictions_are_rescaled_and_clipped(self):
        """Normalisation is always on: predictions are the network's
        rows times the layer's running scale, clipped at ``CLIP_SIGMA``
        scales."""
        conv, out = self._conv_setup()
        predictor = GradientPredictor(max_row=conv.gradient_size())
        predictor.train_step(conv, out, conv.weight.grad, conv.bias.grad)
        scale = predictor._scale_for(conv)
        with mock.patch.object(predictor_module, "CLIP_SIGMA", np.inf):
            w_free, b_free = predictor.predict(conv, out)
        raw = predictor.network.forward(reorganize.reorganize_activations(conv, out))
        np.testing.assert_allclose(
            w_free.reshape(4, -1), raw[:, :-1] * scale, rtol=1e-5
        )
        np.testing.assert_allclose(b_free, raw[:, -1] * scale, rtol=1e-5)
        # A clip at the median |row| bites on half the entries.
        sigma = float(np.median(np.abs(raw)))
        with mock.patch.object(predictor_module, "CLIP_SIGMA", sigma):
            w_grad, b_grad = predictor.predict(conv, out)
        bound = sigma * scale
        assert np.abs(w_grad).max() <= bound * (1 + 1e-6)
        np.testing.assert_array_equal(w_grad, np.clip(w_free, -bound, bound))
        np.testing.assert_array_equal(b_grad, np.clip(b_free, -bound, bound))
        assert not np.array_equal(w_grad, w_free)

    def test_invalid_max_row(self):
        with pytest.raises(ValueError):
            GradientPredictor(max_row=0)


class TestMape:
    def test_perfect_prediction_is_zero(self):
        a = RNG.standard_normal(20)
        assert mean_absolute_percentage_error(a, a.copy()) == 0.0

    def test_zero_prediction_is_hundred_percent(self):
        a = RNG.standard_normal(1000)
        mape = mean_absolute_percentage_error(a, np.zeros_like(a))
        np.testing.assert_allclose(mape, 100.0, rtol=1e-5)

    def test_scales_with_error(self):
        a = np.ones(10)
        assert mean_absolute_percentage_error(a, a * 0.9) == pytest.approx(10.0)
