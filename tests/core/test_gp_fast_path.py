"""The forward-only Phase-GP fast path through the engine layer.

Covers: GP batches run under no-grad (caches verifiably absent, backward
raises), the loss-value-only entry points match the ``(loss, grad)``
pair form, batched-GP (one ``predict_many`` + grouped apply) equals the
deferred per-layer predict/apply sequence, pipeline GP streams are
no-grad, and evaluation is unchanged by the no-grad rewrite.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    GradientPredictor,
    HeuristicSchedule,
    Phase,
    adagp_engine,
    pipeline_adagp_engine,
)
from repro.core.engine.strategies import GradPredictStrategy
from repro.data import synthetic_images
from repro.nn.losses import CrossEntropyLoss, accuracy, loss_value
from repro.nn.module import NO_GRAD


def _model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 3, rng=rng),
    )


def _adagp(seed=0, **kwargs):
    nn.init.reset_layer_rng(0)
    model = _model(seed)
    predictor = GradientPredictor.for_model(
        model, rng=np.random.default_rng(42)
    )
    return adagp_engine(
        model,
        CrossEntropyLoss(),
        predictor=predictor,
        lr=0.05,
        metric_fn=accuracy,
        schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
        **kwargs,
    )


def _batch(seed=0, batch=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, batch)
    return x, y


class TestLossValue:
    def test_value_matches_pair_form(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 5)).astype(np.float32)
        targets = rng.integers(0, 5, 6)
        ce = CrossEntropyLoss()
        assert ce.value(logits, targets) == ce(logits, targets)[0]
        seq_logits = rng.standard_normal((2, 7, 5)).astype(np.float32)
        seq_targets = rng.integers(0, 5, (2, 7))
        seq_targets[0, :3] = -1
        ce_pad = CrossEntropyLoss(ignore_index=-1)
        assert (
            ce_pad.value(seq_logits, seq_targets)
            == ce_pad(seq_logits, seq_targets)[0]
        )

    def test_value_all_ignored_positions(self):
        ce = CrossEntropyLoss(ignore_index=0)
        logits = np.zeros((2, 3), dtype=np.float32)
        targets = np.zeros(2, dtype=np.int64)
        assert ce.value(logits, targets) == 0.0

    def test_loss_value_dispatch_and_fallback(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 3)).astype(np.float32)
        targets = rng.integers(0, 3, 4)
        ce = CrossEntropyLoss()
        assert loss_value(ce, logits, targets) == ce(logits, targets)[0]

        def pair_only(outputs, target):
            return 1.25, np.zeros_like(outputs)

        assert loss_value(pair_only, logits, targets) == 1.25

    def test_value_shape_validation(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().value(np.zeros((2, 3)), np.zeros(3))


class TestNoGradGPBatch:
    @pytest.mark.parametrize("backend", ["numpy", "fused"])
    def test_gp_batch_leaves_no_backward_caches(self, backend):
        engine = _adagp(backend=backend)
        x, y = _batch()
        result = engine.train_batch(x, y, Phase.GP)
        assert result.phase == Phase.GP
        assert np.isfinite(result.loss)
        # Every layer's slot is the no-grad sentinel or cleared, never a
        # retained context (the engine clear_caches turns NO_GRAD into
        # None; both prove nothing was pinned).
        for layer in engine.layers:
            assert layer._saved is None or layer._saved is NO_GRAD

    def test_backward_raises_after_gp_batch(self):
        engine = _adagp()
        x, y = _batch()
        engine.train_batch(x, y, Phase.GP)
        with pytest.raises(RuntimeError):
            engine.model.backward(np.ones((8, 3), dtype=np.float32))

    def test_gp_batch_applies_updates(self):
        engine = _adagp()
        x, y = _batch()
        engine.train_batch(x, y, Phase.WARMUP)  # predictor sees one batch
        before = [layer.weight.data.copy() for layer in engine.layers]
        engine.train_batch(x, y, Phase.GP)
        changed = [
            not np.array_equal(prev, layer.weight.data)
            for prev, layer in zip(before, engine.layers)
        ]
        assert all(changed)

    def test_gp_loss_matches_value_only_form(self):
        """The monitoring loss is the plain scalar of the outputs."""
        engine = _adagp()
        x, y = _batch()
        result = engine.train_batch(x, y, Phase.GP)
        # Recompute forward with the *updated* weights: hooks applied
        # updates mid-forward, so re-running now gives a different loss;
        # just sanity-check the recorded loss is a genuine CE value.
        assert 0.0 < result.loss < 20.0


class TestBatchedGP:
    def test_batched_equals_deferred_per_layer_sequence(self):
        """batched_predict == per-layer predict/apply deferred to the end.

        The stacked ``predict_many`` + grouped ``apply_gradients`` must
        reproduce (to numerical tolerance) predicting each layer from
        the same collected activations and applying per layer after the
        forward — the only semantic difference from hooked mode is the
        deferral, which is exactly what this pins down.
        """
        x, y = _batch(seed=3)
        engine_a = _adagp()
        engine_b = _adagp()
        for a_layer, b_layer in zip(engine_a.layers, engine_b.layers):
            assert np.array_equal(a_layer.weight.data, b_layer.weight.data)

        # A: engine path with batched_predict.
        strategy = GradPredictStrategy(batched_predict=True)
        strategy.bind(engine_a)
        strategy.train_batch(x, y, Phase.GP)

        # B: manual deferred reference.
        activations = {}
        for layer in engine_b.layers:
            layer.forward_hook = (
                lambda module, output: activations.__setitem__(id(module), output)
            )
        with nn.no_grad():
            engine_b.model(x)
        engine_b.clear_hooks()
        for layer in engine_b.layers:
            weight_grad, bias_grad = engine_b.predictor.predict(
                layer, activations[id(layer)]
            )
            engine_b.gp_optimizer.apply_gradient(layer.weight, weight_grad)
            if layer.bias is not None and bias_grad is not None:
                engine_b.gp_optimizer.apply_gradient(layer.bias, bias_grad)

        for a_layer, b_layer in zip(engine_a.layers, engine_b.layers):
            np.testing.assert_allclose(
                a_layer.weight.data, b_layer.weight.data, atol=1e-5
            )
            if a_layer.bias is not None:
                np.testing.assert_allclose(
                    a_layer.bias.data, b_layer.bias.data, atol=1e-5
                )

    def test_batched_matches_hooked_for_feedforward_chain(self):
        """Hooked and batched GP coincide on a single-pass feed-forward.

        A layer's in-flight update lands *after* its forward produced
        the activation every downstream layer consumes, so within one
        batch of a feed-forward chain nothing ever re-reads the updated
        weights — deferring all updates to end-of-forward (batched mode)
        must therefore land on the same weights.  (The modes can diverge
        only across batches or with weight reuse inside one forward.)
        """
        x, y = _batch(seed=3)
        engine_hooked = _adagp()
        engine_batched = _adagp(batched_gp=True)
        engine_hooked.train_batch(x, y, Phase.GP)
        engine_batched.train_batch(x, y, Phase.GP)
        for hooked_layer, batched_layer in zip(
            engine_hooked.layers, engine_batched.layers
        ):
            np.testing.assert_allclose(
                hooked_layer.weight.data,
                batched_layer.weight.data,
                atol=1e-6,
            )

    def test_factory_wires_batched_gp(self):
        engine = _adagp(batched_gp=True)
        strategy = engine.strategies[Phase.GP]
        assert isinstance(strategy, GradPredictStrategy)
        assert strategy.batched_predict
        x, y = _batch()
        result = engine.train_batch(x, y, Phase.GP)
        assert result.phase == Phase.GP
        assert np.isfinite(result.loss)


class TestEvaluateNoGrad:
    def test_evaluate_matches_pre_rewrite_loss(self):
        """Value-only, no-grad evaluation returns the same numbers as
        computing (loss, grad) pairs with retained caches would."""
        split = synthetic_images(3, 32, 16, image_size=8, seed=0)
        engine = _adagp()
        val_loss, val_metric = engine.evaluate(
            split.val.batches(16, shuffle=False)
        )
        # Manual reference on the same weights.
        engine.model.eval()
        losses, metrics = [], []
        for inputs, targets in split.val.batches(16, shuffle=False):
            outputs = engine.model(inputs)
            loss, _ = engine.loss_fn(outputs, targets)
            losses.append(loss)
            metrics.append(accuracy(outputs, targets))
        engine.model.train()
        assert val_loss == pytest.approx(float(np.mean(losses)), abs=1e-6)
        assert val_metric == pytest.approx(float(np.mean(metrics)), abs=1e-6)

    def test_evaluate_fused_leaves_pool_clean(self):
        from repro.nn.backend import FusedBackend

        backend = FusedBackend()
        split = synthetic_images(3, 32, 16, image_size=8, seed=0)
        engine = _adagp(backend=backend)
        engine.evaluate(split.val.batches(16, shuffle=False))
        assert backend.pool.outstanding == 0


class TestPipelineGPNoGrad:
    def test_pipeline_gp_batch_is_no_grad(self):
        nn.init.reset_layer_rng(0)
        engine = pipeline_adagp_engine(
            _model(),
            CrossEntropyLoss(),
            num_stages=2,
            micro_batches=2,
            lr=0.05,
            schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (1, 1)),)),
        )
        x, y = _batch(batch=8)
        engine.train_batch(x, y, Phase.WARMUP)
        result = engine.train_batch(x, y, Phase.GP)
        assert result.phase == Phase.GP
        assert np.isfinite(result.loss)
        # The GP stream ran forward-only: no stage retained a context.
        for layer in engine.layers:
            assert layer._saved is None or layer._saved is NO_GRAD
        # And a BP batch afterwards still works (grad mode restored).
        bp = engine.train_batch(x, y, Phase.BP)
        assert np.isfinite(bp.loss)
