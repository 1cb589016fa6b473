"""One batch body: the tap, the predictor update and the predicted
update are written once (``PhaseStrategy``), and the bespoke per-scheme
hooks they replaced live on here as hand-written oracles.

Covers: pipeline GP and ADA-GP Phase-BP batches equal their
hand-written hooks bitwise; the pipeline engine equals serial ADA-GP on a BatchNorm-free
chain (an equivalence the schemes always implied and nothing stated);
``PipelineGPStrategy.forward_backward`` runs on the executor; rank 0 of
a data-parallel world is a ``DistWorker`` like every other rank.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import (
    GradientPredictor,
    HeuristicSchedule,
    Phase,
    adagp_engine,
    pipeline_adagp_engine,
)
from repro.dist import DistWorker, IdentityCodec, ddp_engine, shutdown
from repro.nn.losses import CrossEntropyLoss
from repro.pipeline import PipelineExecutor

MICRO = 4


def _chain(convs=2, bias=True, seed=0):
    """BatchNorm-free conv chain: micro-batched and full-batch forwards
    then agree to float rounding."""
    rng = np.random.default_rng(seed)
    layers, channels = [], 3
    for _ in range(convs):
        layers += [nn.Conv2d(channels, 4, 3, padding=1, bias=bias, rng=rng), nn.ReLU()]
        channels = 4
    layers += [nn.GlobalAvgPool2d(), nn.Linear(4, 3, bias=bias, rng=rng)]
    return nn.Sequential(*layers)


def _single_conv(seed=0):
    """One predictable layer: a one-layer predictor stack."""
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Conv2d(3, 3, 3, padding=1, rng=rng), nn.GlobalAvgPool2d())


def _engine(factory, model, **kwargs):
    predictor = GradientPredictor.for_model(model, rng=np.random.default_rng(42))
    kwargs.setdefault("schedule", HeuristicSchedule(warmup_epochs=0))
    return factory(
        model, CrossEntropyLoss(), predictor=predictor, lr=0.05,
        plateau_scheduler=False, **kwargs,
    )


def _pipeline(model):
    return _engine(pipeline_adagp_engine, model, num_stages=2, micro_batches=MICRO)


def _batch(batch=8, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((batch, 3, 8, 8)).astype(np.float32),
        rng.integers(0, 3, batch),
    )


def _weights(engine):
    """Every model and predictor weight, by name."""
    named = dict(engine.model.named_parameters())
    named.update(
        (f"predictor.{n}", p) for n, p in engine.predictor.network.named_parameters()
    )
    return {name: param.data for name, param in named.items()}


def _assert_same_weights(a, b, atol=0.0):
    got, want = _weights(a), _weights(b)
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=atol, err_msg=name)


class TestBespokeHooksAsOracles:
    def test_pipeline_gp_batch_equals_handwritten_hook(self):
        """Accumulate each layer's micro-batch outputs, predict once
        from the concatenation when the last arrives, apply through the
        GP optimizer — the bespoke pipeline predict hook this PR deleted."""
        x, y = _batch()
        engine, reference = _pipeline(_chain()), _pipeline(_chain())
        for each in (engine, reference):
            each.train_batch(x, y, Phase.BP)  # the predictor has scales to use

        result = engine.train_batch(x, y, Phase.GP)

        executor = PipelineExecutor.from_model(
            reference.model, 2, input_shape=x.shape[1:], micro_batches=MICRO
        )
        chunks = {}

        def hook(layer, output):
            parts = chunks.setdefault(id(layer), [])
            parts.append(output)
            if len(parts) == MICRO:
                weight_grad, bias_grad = reference.predictor.predict(
                    layer, np.concatenate(parts, axis=0)
                )
                reference.gp_optimizer.apply_gradient(layer.weight, weight_grad)
                if layer.bias is not None and bias_grad is not None:
                    reference.gp_optimizer.apply_gradient(layer.bias, bias_grad)

        for layer in reference.layers:
            layer.forward_hook = hook
        with nn.no_grad():
            run = executor.run_gp_batch(x, y, reference.loss_fn)
        reference.clear_hooks()

        assert result.loss == run.loss
        _assert_same_weights(engine, reference)

    @pytest.mark.parametrize(
        "build",
        [
            _chain,
            lambda: _chain(bias=False),
            lambda: _chain(convs=1),
            _single_conv,
        ],
        ids=["two_convs", "no_bias", "one_conv", "single_layer"],
    )
    def test_bp_batch_equals_handwritten_hook(self, build):
        """A plain activation hook, full backprop, the optimizer step,
        then one stacked predictor step on the layers' gradients
        *after* the step, on chains of one to three layers.  Bitwise
        equality shows that the strategy's training of the predictor
        before the step changes nothing — the property the
        data-parallel rank seam relies on."""
        x, y = _batch()
        engine = _engine(adagp_engine, build())
        reference = _engine(adagp_engine, build())
        for _ in range(2):  # the second batch starts from trained scales
            result = engine.train_batch(x, y, Phase.BP)

            activations = {}

            def hook(layer, output):
                activations[id(layer)] = output

            for layer in reference.layers:
                layer.forward_hook = hook
            reference.model.train()
            outputs = reference.model(x)
            reference.clear_hooks()
            loss, grad = reference.loss_fn(outputs, y)
            reference.optimizer.zero_grad()
            reference.model.backward(grad)
            reference.optimizer.step()
            layers = reference.layers
            rows = (
                layers,
                [activations[id(layer)] for layer in layers],
                [layer.weight.grad for layer in layers],
                [None if layer.bias is None else layer.bias.grad for layer in layers],
            )
            metrics = reference.predictor.train_step_many(*rows)
            reference.model.clear_caches()

            assert result.loss == loss
            assert result.predictor_mse == {i: m for i, (m, _) in enumerate(metrics)}
            assert result.predictor_mape == {i: m for i, (_, m) in enumerate(metrics)}
            _assert_same_weights(engine, reference)


class TestPipelineEqualsSerial:
    @given(
        batch=st.integers(MICRO, 16),
        convs=st.integers(1, 3),
        bias=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_pipeline_equals_serial_adagp(self, batch, convs, bias):
        """The pipeline strategy only swaps *how* forward/backward run:
        on a chain whose layers do not couple samples, the same phase
        sequence lands on the serial engine's weights and metrics."""
        x, y = _batch(batch)
        serial = _engine(adagp_engine, _chain(convs, bias))
        pipelined = _pipeline(_chain(convs, bias))
        for phase in (Phase.BP, Phase.BP, Phase.GP, Phase.GP, Phase.BP, Phase.GP):
            want = serial.train_batch(x, y, phase)
            got = pipelined.train_batch(x, y, phase)
            assert got.loss == pytest.approx(want.loss, abs=1e-6)
            assert (got.predictor_mape or {}).keys() == (want.predictor_mape or {}).keys()
        _assert_same_weights(pipelined, serial, atol=1e-6)
        pipelined.strategies[Phase.GP].executor.validate()


class TestPipelineForwardBackward:
    def test_runs_on_the_executor_and_leaves_train_batch_gradients(self):
        x, y = _batch()
        seam, whole = _pipeline(_chain()), _pipeline(_chain())
        before = {n: p.data.copy() for n, p in seam.model.named_parameters()}
        strategy = seam.strategies[Phase.BP]

        result = strategy.forward_backward(x, y, Phase.BP)
        reference = whole.train_batch(x, y, Phase.BP)

        assert result.loss == reference.loss
        assert result.predictor_mape == reference.predictor_mape
        bw = [task for task in strategy.executor.timeline.tasks if task.kind == "bw"]
        assert len(bw) == 2 * MICRO  # stages x micro-batches: it ran pipelined
        stepped = dict(whole.model.named_parameters())
        for name, param in seam.model.named_parameters():
            np.testing.assert_array_equal(param.grad, stepped[name].grad, err_msg=name)
            np.testing.assert_array_equal(param.data, before[name], err_msg=name)
            assert not np.array_equal(stepped[name].data, before[name]), name

    def test_grad_scale_is_refused_by_name(self):
        x, y = _batch()
        engine = _pipeline(_chain())
        with pytest.raises(ValueError, match="grad_scale=0.5"):
            engine.strategies[Phase.BP].forward_backward(x, y, Phase.BP, grad_scale=0.5)


class TestRankZeroIsAWorker:
    def test_rank0_replies_have_a_replicas_shape(self, monkeypatch):
        """Rank 0 answers the same command dicts through the same
        ``DistWorker`` code, so its replies carry a replica's keys and
        value types (a replica's also echo the wire ``seq``)."""
        replies = {}
        handle = DistWorker.handle

        def recording(worker, cmd):
            reply = handle(worker, cmd)
            replies.setdefault((cmd["op"], worker.rank), reply)
            return reply

        monkeypatch.setattr(DistWorker, "handle", recording)
        engine = ddp_engine(
            _chain(), CrossEntropyLoss(), workers=2, transport="local", lr=0.05,
            schedule=HeuristicSchedule(warmup_epochs=0),
        )
        try:
            x, y = _batch()
            engine.train_batch(x, y, Phase.BP)
            engine.train_batch(x, y, Phase.GP)
        finally:
            shutdown(engine)

        def shape(value):
            if isinstance(value, np.ndarray):
                return (value.dtype, value.ndim)
            if isinstance(value, dict):
                return {key: shape(item) for key, item in value.items()}
            if isinstance(value, list):
                return [shape(item) for item in value]
            if hasattr(value, "values") and hasattr(value, "kind"):  # EncodedGrad
                return (value.kind, value.values.dtype, value.shape)
            return type(value)

        for op in ("compute", "apply", "gp"):
            driver, replica = replies[(op, 0)], dict(replies[(op, 1)])
            replica.pop("seq")
            assert driver.keys() == replica.keys(), op
            for key in driver.keys() - {"rank"}:
                assert shape(driver[key]) == shape(replica[key]), (op, key)

    def test_replica_construction_is_unchanged(self):
        engine = _engine(adagp_engine, _chain())
        worker = DistWorker(engine, IdentityCodec(), rank=1, world_size=2)
        assert worker.strategies is engine.strategies
        assert worker.handle({"op": "ping"}) == {"ok": True, "rank": 1}
