"""Phase GP serves the predictable layers no BatchNorm follows and
coasts the rest: one GP batch applies the predictor's rows for the
served layers and a zero gradient for every BN-fed predictable layer's
weight and bias, in one ``gp_optimizer`` apply, and touches nothing
else.  ``all_layers=True`` (the paper's arm) serves every predictable
layer; on a model without BatchNorm the two arms are the same run.
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
from repro.data.translation import PAD_ID, synthetic_translation, teacher_forcing
from repro.models import Seq2SeqTransformer, build_mini
from repro.nn.layers.norm import _BatchNorm
from repro.nn.losses import CrossEntropyLoss


def _vgg_engine(factory=adagp_engine, **kwargs):
    model = build_mini("VGG13", 10, rng=np.random.default_rng(0))
    return factory(
        model, CrossEntropyLoss(), lr=0.05, predictor_lr=1e-2,
        plateau_scheduler=False, schedule=HeuristicSchedule(warmup_epochs=0),
        **kwargs,
    )


def _batch(seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((8, 3, 16, 16)).astype(np.float32),
        rng.integers(0, 10, 8),
    )


def _fed(engine):
    return [layer for layer in engine.table.predictable if layer not in engine.layers]


def _hand_coast(engine, layers):
    """A fresh ``SGD`` over copies of ``layers``' parameters, holding
    the engine optimizer's velocity for them, stepped once with a zero
    gradient: the copies it returns are where a coast must land."""
    optimizer = engine.gp_optimizer
    params = [p for layer in layers for p in (layer.weight, layer.bias) if p is not None]
    copies = [nn.Parameter(p.data.copy()) for p in params]
    hand = nn.SGD(copies, lr=optimizer.lr, momentum=optimizer.momentum)
    index = {id(p): i for i, p in enumerate(optimizer.parameters)}
    velocity = optimizer.state_dict()["slots"]["_velocity"]
    hand.load_state_dict(
        {"lr": optimizer.lr,
         "slots": {"_velocity": {k: velocity[index[id(p)]] for k, p in enumerate(params)}}}
    )
    hand.apply_gradients([(copy, np.zeros_like(copy.data)) for copy in copies])
    return params, copies


class TestOneGPBatchOnVGG13:
    def test_fed_convs_coast_bn_stays_and_the_classifier_is_predicted(self):
        x, y = _batch()
        engine, twin = _vgg_engine(), _vgg_engine()
        for each in (engine, twin):
            each.train_batch(x, y, Phase.BP)  # velocity and predictor scales
        classifier = engine.model.layers[-1]
        fed = _fed(engine)
        assert engine.layers == [classifier] and len(fed) == 10
        assert len(engine.coast) == 20  # a weight and a bias per fed conv
        params, coasted = _hand_coast(engine, fed)
        norms = [m for m in engine.model.modules() if isinstance(m, _BatchNorm)]
        affine = [(p, p.data.copy()) for m in norms for p in (m.weight, m.bias)]
        before = {id(p): p.data.copy() for p in engine.model.parameters()}

        # The twin's GP batch by hand: the classifier's activation from
        # the same no-grad train-mode forward, its prediction, and one
        # apply of it together with the twin's coast.
        tapped = {}
        twin_classifier = twin.model.layers[-1]
        twin_classifier.forward_hook = lambda _m, out: tapped.setdefault("out", out)
        with nn.no_grad():
            twin.model(x)
        twin_classifier.forward_hook = None
        weight_grad, bias_grad = twin.predictor.predict(twin_classifier, tapped["out"])
        twin.gp_optimizer.apply_gradients(
            [(twin_classifier.weight, weight_grad), (twin_classifier.bias, bias_grad)]
            + twin.coast
        )

        engine.train_batch(x, y, Phase.GP)

        for param, copy in zip(params, coasted):
            np.testing.assert_array_equal(param.data, copy.data, err_msg=param.name)
            assert not np.array_equal(param.data, before[id(param)]), param.name
        for param, was in affine:
            np.testing.assert_array_equal(param.data, was, err_msg=param.name)
        assert not np.array_equal(classifier.weight.data, before[id(classifier.weight)])
        for (name, got), (_, want) in zip(
            engine.model.named_parameters(), twin.model.named_parameters()
        ):
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)

    def test_a_gp_batch_is_one_apply_call(self, monkeypatch):
        engine = _vgg_engine()
        x, y = _batch()
        engine.train_batch(x, y, Phase.BP)
        calls = []
        apply = engine.gp_optimizer.apply_gradients
        monkeypatch.setattr(
            engine.gp_optimizer, "apply_gradients",
            lambda updates: (calls.append(len(updates)), apply(updates)),
        )
        engine.train_batch(x, y, Phase.GP)
        engine.train_batch(x, y, Phase.GP)
        assert calls == [2 + 20, 2 + 20]

    def test_the_coast_buffers_are_allocated_once(self):
        engine = _vgg_engine()
        x, y = _batch()
        buffers = [id(zeros) for _param, zeros in engine.coast]
        engine.train_batch(x, y, Phase.BP)
        engine.train_batch(x, y, Phase.GP)
        assert [id(zeros) for _param, zeros in engine.coast] == buffers
        assert not any(zeros.any() for _param, zeros in engine.coast)

    def test_predictor_is_sized_for_the_served_layers(self):
        def size(engine):
            return sum(p.size for p in engine.predictor.network.parameters())

        assert size(_vgg_engine()) == 2185
        assert size(_vgg_engine(all_layers=True)) == 18825
        model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
        assert sum(p.size for p in GradientPredictor.for_model(model).network.parameters()) == 3225

    def test_a_fed_conv_on_a_served_sized_predictor_names_the_all_layer_sizing(self):
        """``for_model(model)`` built the too-small predictor, so the
        error names the call that sizes one for every layer."""
        engine = _vgg_engine()
        conv = max(_fed(engine), key=lambda layer: layer.gradient_size())
        output = np.ones((2, conv.output_units(), 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match=r"for_model\(model, all_layers=True\)"):
            engine.predictor.predict(conv, output)

    def test_scales_are_keyed_by_served_layer_index(self):
        x, y = _batch()
        served, every = _vgg_engine(), _vgg_engine(all_layers=True)
        for engine in (served, every):
            engine.train_batch(x, y, Phase.BP)
        assert list(served.predictor.scales_state(served.layers)) == [0]
        assert list(every.predictor.scales_state(every.layers)) == list(range(11))
        assert list(served.state_dict()["predictor"]["scales"]) == [0]

    def test_the_paper_arm_coasts_nothing(self):
        engine = _vgg_engine(all_layers=True)
        assert engine.layers == engine.table.predictable and engine.coast == []

    def test_a_model_with_no_served_layer_is_refused(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Conv2d(3, 4, 3, rng=rng), nn.BatchNorm2d(4))
        with pytest.raises(ValueError, match="serve"):
            adagp_engine(model, CrossEntropyLoss())
        adagp_engine(model, CrossEntropyLoss(), all_layers=True)


def test_pipeline_applies_the_coast_once_per_gp_batch():
    """Two served layers fire in flight, one per micro-batch stream;
    the BN-fed conv still takes exactly one zero-gradient step."""
    rng = np.random.default_rng(0)
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng), nn.BatchNorm2d(4), nn.ReLU(),
        nn.Conv2d(4, 4, 3, padding=1, rng=rng), nn.ReLU(),
        nn.GlobalAvgPool2d(), nn.Linear(4, 10, rng=rng),
    )
    engine = pipeline_adagp_engine(
        model, CrossEntropyLoss(), num_stages=2, micro_batches=4, lr=0.05,
        plateau_scheduler=False, schedule=HeuristicSchedule(warmup_epochs=0),
    )
    x, y = _batch()
    engine.train_batch(x, y, Phase.BP)
    fed = _fed(engine)
    assert len(engine.layers) == 2 and fed == [model.layers[0]]
    params, coasted = _hand_coast(engine, fed)
    engine.train_batch(x, y, Phase.GP)
    for param, copy in zip(params, coasted):
        np.testing.assert_array_equal(param.data, copy.data, err_msg=param.name)


def test_transformer_runs_the_same_under_both_arms():
    """No BatchNorm, nothing to coast: the default engine is the
    paper's arm, bitwise, over a 2-epoch fit."""
    train = synthetic_translation(num_sentences=32, content_vocab=12, max_len=6, seed=0)
    val = synthetic_translation(num_sentences=16, content_vocab=12, max_len=6, seed=1)

    def fit(all_layers):
        model = Seq2SeqTransformer(
            train.src_vocab, train.tgt_vocab, d_model=16, num_heads=2, d_ff=32,
            num_encoder_layers=1, num_decoder_layers=1, rng=np.random.default_rng(1),
        )
        engine = adagp_engine(
            model, CrossEntropyLoss(ignore_index=PAD_ID),
            optimizer=nn.Adam(model.parameters(), lr=2e-3),
            gp_optimizer=nn.SGD(model.parameters(), lr=2e-3, momentum=0.9),
            plateau_scheduler=False, all_layers=all_layers,
            schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
        )
        assert engine.coast == []
        return engine.fit(
            teacher_forcing(train.epochs(8, 2)), teacher_forcing(val.epochs(16)), 2
        )

    served, every = fit(False), fit(True)
    assert sum(served.gp_batches) > 0
    assert served.train_loss == every.train_loss
    assert served.val_loss == every.val_loss
