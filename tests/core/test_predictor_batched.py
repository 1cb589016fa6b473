"""Batched-vs-sequential predictor equivalence (the BP-phase fast path).

``GradientPredictor.predict_many``/``train_step_many`` stack every
layer's pooled activations into one forward/backward.  These tests
pin the numerical contract: batched predictions match per-layer
predictions, and the batched backward accumulates exactly the sum of the
per-layer gradients at frozen weights (atol <= 1e-5).
"""

from unittest import mock

import numpy as np
import pytest

from repro import nn
from repro.core import GradientPredictor, HeuristicSchedule, adagp_engine
from repro.core import predictor as predictor_module
from repro.data import synthetic_images
from repro.nn.losses import CrossEntropyLoss

RNG = np.random.default_rng(61)
ATOL = 1e-5


def _model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 3, rng=rng),
    )


def _collect_entries(model, seed=0):
    """(layer, output, weight_grad, bias_grad) for one backprop batch."""
    layers = nn.graph.trace(model).predictable
    activations = {}

    def hook(layer, output):
        activations[id(layer)] = output

    for layer in layers:
        layer.forward_hook = hook
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, 8)
    try:
        outputs = model(x)
    finally:
        for layer in layers:
            layer.forward_hook = None
    _, grad = CrossEntropyLoss()(outputs, y)
    model.zero_grad()
    model.backward(grad)
    return [
        (
            layer,
            activations[id(layer)],
            layer.weight.grad,
            layer.bias.grad if layer.bias is not None else None,
        )
        for layer in layers
    ]


def _predictor(model, seed=5, **kwargs):
    return GradientPredictor.for_model(
        model, rng=np.random.default_rng(seed), **kwargs
    )


class TestPredictManyEquivalence:
    @pytest.mark.parametrize("clipped", [True, False])
    def test_matches_per_layer_predict(self, clipped):
        """Unclipped (``CLIP_SIGMA`` patched to infinity), every entry
        is compared, so the clip cannot hide a mismatch beyond it."""
        model = _model()
        entries = _collect_entries(model)
        predictor = _predictor(model)
        # Give the per-layer scales realistic values first.
        for layer, output, w_grad, b_grad in entries:
            predictor.train_step(layer, output, w_grad, b_grad)
        layers = [e[0] for e in entries]
        outputs = [e[1] for e in entries]
        sigma = predictor_module.CLIP_SIGMA if clipped else np.inf
        with mock.patch.object(predictor_module, "CLIP_SIGMA", sigma):
            batched = predictor.predict_many(layers, outputs)
            singles = [predictor.predict(e[0], e[1]) for e in entries]
        for (w_one, b_one), (w_many, b_many) in zip(singles, batched):
            np.testing.assert_allclose(w_many, w_one, atol=ATOL, rtol=1e-5)
            if b_one is None:
                assert b_many is None
            else:
                np.testing.assert_allclose(b_many, b_one, atol=ATOL, rtol=1e-5)

    def test_mixed_conv_and_linear_layers_supported(self):
        model = _model()
        entries = _collect_entries(model)
        predictor = _predictor(model)
        results = predictor.predict_many(
            [e[0] for e in entries], [e[1] for e in entries]
        )
        for (layer, *_), (w_grad, b_grad) in zip(entries, results):
            assert w_grad.shape == layer.weight.shape
            assert b_grad.shape == layer.bias.shape

    def test_length_mismatch_rejected(self):
        model = _model()
        entries = _collect_entries(model)
        predictor = _predictor(model)
        with pytest.raises(ValueError):
            predictor.predict_many([e[0] for e in entries], [entries[0][1]])

    def test_empty_rejected(self):
        predictor = _predictor(_model())
        with pytest.raises(ValueError):
            predictor.predict_many([], [])


class TestTrainStepManyEquivalence:
    def _grads(self, predictor):
        return [
            np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in predictor.network.parameters()
        ]

    def test_gradient_equals_sum_of_per_layer_gradients(self):
        """At frozen weights, one batched backward == the summed
        per-layer backwards of the sequential loop."""
        model = _model()
        entries = _collect_entries(model)
        p_seq = _predictor(model)
        p_bat = _predictor(model)

        summed = None
        seq_metrics = []
        for layer, output, w_grad, b_grad in entries:
            seq_metrics.append(
                p_seq.train_step(layer, output, w_grad, b_grad, apply_update=False)
            )
            grads = self._grads(p_seq)
            summed = grads if summed is None else [
                s + g for s, g in zip(summed, grads)
            ]

        bat_metrics = p_bat.train_step_many(
            [e[0] for e in entries],
            [e[1] for e in entries],
            [e[2] for e in entries],
            [e[3] for e in entries],
            apply_update=False,
        )
        batched = self._grads(p_bat)

        for expected, actual in zip(summed, batched):
            np.testing.assert_allclose(actual, expected, atol=ATOL, rtol=1e-4)
        np.testing.assert_allclose(bat_metrics, seq_metrics, rtol=1e-6)

    def test_scales_updated_identically(self):
        model = _model()
        entries = _collect_entries(model)
        p_seq = _predictor(model)
        p_bat = _predictor(model)
        for layer, output, w_grad, b_grad in entries:
            p_seq.train_step(layer, output, w_grad, b_grad, apply_update=False)
        p_bat.train_step_many(
            [e[0] for e in entries],
            [e[1] for e in entries],
            [e[2] for e in entries],
            [e[3] for e in entries],
            apply_update=False,
        )
        for layer, *_ in entries:
            assert p_seq._scale_for(layer) == pytest.approx(
                p_bat._scale_for(layer)
            )

    def test_batched_training_reduces_error_on_fixed_targets(self):
        model = _model()
        entries = _collect_entries(model)
        predictor = _predictor(model, lr=5e-3)
        layers = [e[0] for e in entries]
        outputs = [e[1] for e in entries]
        w_grads = [e[2] for e in entries]
        b_grads = [e[3] for e in entries]
        first = predictor.train_step_many(layers, outputs, w_grads, b_grads)
        for _ in range(100):
            last = predictor.train_step_many(layers, outputs, w_grads, b_grads)
        assert sum(m for m, _ in last) < sum(m for m, _ in first) * 0.5


class TestTrainerPaths:
    """The stacked predictor update works end-to-end through the engine,
    with Phase-GP batches between its Phase-BP batches."""

    def test_fit_collects_errors(self):
        split = synthetic_images(3, 48, 24, image_size=8, seed=3)
        engine = adagp_engine(
            _model(seed=2),
            CrossEntropyLoss(),
            lr=0.05,
            schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
        )
        history = engine.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(0)),
            lambda: split.val.batches(24, shuffle=False),
            epochs=2,
        )
        assert len(history.predictor_mape) == 2
        assert len(history.predictor_mape[0]) == 3
        assert history.gp_batches[1] > 0


def test_exploding_targets_give_finite_metrics_and_scale():
    """Gradients around 1e20 square to ~1e40, past float32's 3.4e38:
    the metric sums and the running target scale run in float64, so two
    steps report finite ``(mse, mape)`` of the right size and leave a
    finite scale."""
    model = _model()
    entries = _collect_entries(model)
    predictor = _predictor(model)
    layers = [layer for layer, *_ in entries]
    outputs = [output for _, output, *_ in entries]
    rng = np.random.default_rng(3)

    def exploding(grad):
        if grad is None:
            return None
        return (1e20 * (1.0 + rng.random(grad.shape))).astype(np.float32)

    for _ in range(2):
        metrics = predictor.train_step_many(
            layers,
            outputs,
            [exploding(w) for *_, w, _ in entries],
            [exploding(b) for *_, b in entries],
        )
        for mse, mape in metrics:
            assert np.isfinite(mse) and mse > 1e40
            assert np.isfinite(mape)
        for layer in layers:
            scale = predictor._scale_for(layer)
            assert np.isfinite(scale) and 1e20 < scale < 2e20
