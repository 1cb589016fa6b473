"""The forward-only Phase-GP fast path through the engine layer.

Covers: GP batches run under no-grad (caches verifiably absent, backward
raises), the loss-value-only entry points match the ``(loss, grad)``
pair form, the GP batch (one ``predict_many`` + grouped apply) equals
the deferred per-layer predict/apply sequence and, over generated
chains and the Transformer, §3.4's in-flight per-layer hook; a layer
reused within a forward is refused; pipeline GP streams are no-grad,
and evaluation is unchanged by the no-grad rewrite.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.models import Seq2SeqTransformer
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
        # The batch updated the weights after its forward, so re-running
        # now gives a different loss; just sanity-check the recorded loss
        # is a genuine CE value.
        assert 0.0 < result.loss < 20.0


class TestBatchedGP:
    def test_batched_equals_deferred_per_layer_sequence(self):
        """One stacked ``predict_many`` + grouped ``apply_gradients``
        reproduce (to numerical tolerance) predicting each layer from
        the same collected activations and applying per layer after the
        forward."""
        x, y = _batch(seed=3)
        engine_a = _adagp()
        engine_b = _adagp()
        for a_layer, b_layer in zip(engine_a.layers, engine_b.layers):
            assert np.array_equal(a_layer.weight.data, b_layer.weight.data)

        # A: the engine's Phase-GP body.
        strategy = GradPredictStrategy()
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

    def test_factory_refuses_in_flight_updates(self):
        with pytest.raises(ValueError, match="pipeline_adagp_engine"):
            _adagp(batched_gp=False)

    def test_layer_reused_within_a_forward_raises(self):
        """A deferred update would see only the second activation of a
        layer that runs twice, so the tap refuses it by name."""
        nn.init.reset_layer_rng(0)
        shared = nn.Linear(4, 4, rng=np.random.default_rng(0))
        engine = adagp_engine(
            nn.Sequential(shared, nn.ReLU(), shared), CrossEntropyLoss(), lr=0.05
        )
        x = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="predictable layer 'layers.0' .Linear. ran 2 times"):
            engine.train_batch(x, np.array([0, 1, 2]), Phase.GP)
        assert all(layer.forward_hook is None for layer in engine.layers)


def _chain(depth, bias):
    rng = np.random.default_rng(depth)
    layers, channels = [], 3
    for _ in range(depth):
        layers += [nn.Conv2d(channels, 4, 3, padding=1, bias=bias, rng=rng), nn.ReLU()]
        channels = 4
    return nn.Sequential(*layers, nn.GlobalAvgPool2d(), nn.Linear(4, 3, bias=bias, rng=rng))


def _gp_case(kind, depth, bias, batch):
    """Two identical engines and one batch: a conv chain of ``depth``
    convolutions, or the benchmark's Transformer configuration (Adam on
    the model, predicted gradients through SGD) with ``depth`` encoder
    and decoder layers."""
    rng = np.random.default_rng(batch)
    if kind == "chain":
        x, y = _batch(seed=batch, batch=batch)
    else:
        x = (rng.integers(3, 12, (batch, 6)), rng.integers(3, 12, (batch, 5)))
        y = rng.integers(3, 12, (batch, 5))
    engines = []
    for _ in range(2):
        nn.init.reset_layer_rng(0)
        if kind == "chain":
            model, kwargs = _chain(depth, bias), {"lr": 0.05}
        else:
            model = Seq2SeqTransformer(
                12, 12, d_model=8, num_heads=2, d_ff=16, num_encoder_layers=depth,
                num_decoder_layers=depth, rng=np.random.default_rng(0),
            )
            kwargs = {
                "optimizer": nn.Adam(model.parameters(), lr=1e-3),
                "gp_optimizer": nn.SGD(model.parameters(), lr=1e-2, momentum=0.9),
            }
        predictor = GradientPredictor.for_model(model, rng=np.random.default_rng(42))
        engines.append(
            adagp_engine(model, CrossEntropyLoss(), predictor=predictor, **kwargs)
        )
    return engines, x, y


class TestDeferredEqualsInFlight:
    @settings(max_examples=10, deadline=None)
    @example(kind="transformer", depth=2, bias=True, batch=3)
    @given(
        kind=st.just("chain"),
        depth=st.integers(1, 4),
        bias=st.booleans(),
        batch=st.integers(1, 8),
    )
    def test_gp_batch_equals_in_flight_oracle(self, kind, depth, bias, batch):
        """The engine predicts every layer after the forward; §3.4's
        hook predicts each layer from its own output and applies it the
        moment that layer's forward completes.  Every predictable layer
        runs once per forward, so no later layer reads an updated
        weight and both land on the same weights."""
        (engine, oracle), x, y = _gp_case(kind, depth, bias, batch)
        for each in (engine, oracle):
            each.train_batch(x, y, Phase.BP)  # the predictor has scales to use

        def in_flight(layer, output):
            weight_grad, bias_grad = oracle.predictor.predict(layer, output)
            oracle.gp_optimizer.apply_gradient(layer.weight, weight_grad)
            if layer.bias is not None and bias_grad is not None:
                oracle.gp_optimizer.apply_gradient(layer.bias, bias_grad)

        for _ in range(2):
            result = engine.train_batch(x, y, Phase.GP)
            for layer in oracle.layers:
                layer.forward_hook = in_flight
            oracle.model.train()
            with nn.no_grad():
                outputs = oracle.model(x)
            oracle.clear_hooks()
            assert result.loss == pytest.approx(
                loss_value(oracle.loss_fn, outputs, y), abs=1e-6
            )
            want = dict(oracle.model.named_parameters())
            for name, param in engine.model.named_parameters():
                np.testing.assert_allclose(
                    param.data, want[name].data, rtol=0, atol=1e-6, err_msg=name
                )


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
