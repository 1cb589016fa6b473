"""The predictor's per-call plan (DESIGN.md §4).

``GradientPredictor`` keeps one :class:`~repro.core.predictor._Plan` per
layer list — buckets, extents, column offsets, index arrays — and
rebuilds it when the activation shapes change.  These tests pin that a
kept plan changes nothing: every result of a predictor that alternates
between layer lists and sequence lengths is bitwise the result of a
fresh predictor in the same state; the folded stack is the reference
batch means byte for byte; a plan keeps no discarded model alive; and
the stacks the benchmark workloads send are laid out one head bucket
per row width.
"""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core import GradientPredictor, Phase, adagp_engine, reorganize
from repro.models import Seq2SeqTransformer, build_mini
from repro.nn.losses import CrossEntropyLoss


def _transformer_layers():
    model = Seq2SeqTransformer(
        15, 15, d_model=16, num_heads=2, d_ff=24, rng=np.random.default_rng(0)
    )
    return model, nn.graph.trace(model).predictable


def _activations(layers, seq, seed):
    """Sequence activations ``(batch, seq, units)``: ``1 x seq`` planes."""
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal((4, seq, layer.output_units())).astype(np.float32)
        for layer in layers
    ]


def _gradients(layers, seed):
    rng = np.random.default_rng(seed)
    weights = [
        rng.standard_normal(layer.weight.shape).astype(np.float32) for layer in layers
    ]
    biases = [
        None
        if layer.bias is None
        else rng.standard_normal(layer.bias.shape).astype(np.float32)
        for layer in layers
    ]
    return weights, biases


def _fresh_copy(predictor, every_layer):
    """A new predictor holding ``predictor``'s state and no cache."""
    copy = GradientPredictor(predictor.network.max_row)
    copy.network.load_state_dict(predictor.network.state_dict())
    copy.optimizer.load_state_dict(predictor.optimizer.state_dict())
    copy.load_scales_state(every_layer, predictor.scales_state(every_layer))
    return copy


def _bytes(array):
    return None if array is None else (array.dtype, array.shape, array.tobytes())


def _observe(predictor, every_layer):
    """Parameter gradients, weights and scales, as bytes."""
    params = list(predictor.network.parameters())
    return (
        [_bytes(p.grad) for p in params],
        [_bytes(p.data) for p in params],
        predictor.scales_state(every_layer),
    )


class TestPlanStaleness:
    def test_alternating_layer_lists_and_lengths_match_a_fresh_predictor(self):
        """Two layer lists (the whole transformer, and every other layer
        reversed) at two sequence lengths (planes ``1x5`` and ``1x7``),
        interleaved: each ``predict_many`` / ``train_step_many`` result
        — predictions, ``(mse, mape)``, the four parameter gradients,
        the weights after the Adam step and the scales — equals a fresh
        predictor's in the same state."""
        model, every_layer = _transformer_layers()
        lists = {"all": every_layer, "half": every_layer[::2][::-1]}
        predictor = GradientPredictor.for_model(model, lr=1e-2)
        calls = [("all", 5), ("half", 7), ("all", 7), ("half", 5), ("all", 5),
                 ("all", 7), ("half", 7), ("half", 7), ("all", 5)]
        for step, (name, seq) in enumerate(calls):
            layers = lists[name]
            outputs = _activations(layers, seq, step)
            weights, biases = _gradients(layers, step)
            fresh = _fresh_copy(predictor, every_layer)
            for subject in (predictor, fresh):
                subject.results = (
                    [
                        tuple(map(_bytes, prediction))
                        for prediction in subject.predict_many(layers, outputs)
                    ],
                    subject.train_step_many(layers, outputs, weights, biases),
                    _observe(subject, every_layer),
                )
            assert predictor.results == fresh.results, (name, seq)
        # One plan per layer list, each for its latest shapes.
        assert sum(len(plans) for plans in predictor._plans.values()) == 2

    def test_plan_is_kept_while_the_shapes_repeat(self):
        _, layers = _transformer_layers()
        predictor = GradientPredictor(max(l.gradient_size() for l in layers))
        first = predictor._plan(layers, _activations(layers, 6, 0))
        assert predictor._plan(layers, _activations(layers, 6, 1)) is first
        assert predictor._plan(layers, _activations(layers, 7, 1)) is not first

    def test_a_layer_twice_in_one_call_is_rejected(self):
        layer = nn.Linear(3, 2)
        predictor = GradientPredictor(layer.gradient_size())
        output = np.ones((4, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="twice"):
            predictor.predict_many([layer, layer], [output, output])


class TestScaleUpdate:
    """The running scales update as one float64 expression over the
    layer list; it must be the per-layer rule."""

    def test_matches_the_per_layer_rule(self):
        _, layers = _transformer_layers()
        predictor = GradientPredictor(max(l.gradient_size() for l in layers))
        expected = {}
        for step in range(3):
            outputs = _activations(layers, 5, step)
            weights, biases = _gradients(layers, step)
            if step == 0:  # a zero target starts at the floor, not at 0
                weights[0] = np.zeros_like(weights[0])
                if biases[0] is not None:
                    biases[0] = np.zeros_like(biases[0])
            predictor.train_step_many(layers, outputs, weights, biases)
            for index, (layer, weight, bias) in enumerate(
                zip(layers, weights, biases)
            ):
                target = reorganize.flatten_gradients(layer, weight, bias)
                rms = float(np.sqrt(np.mean(np.square(target.astype(np.float64)))))
                rms = rms or 1e-12
                previous = expected.get(index)
                expected[index] = (
                    rms if previous is None else 0.9 * previous + (1 - 0.9) * rms
                )
            scales = predictor.scales_state(layers)
            assert scales == pytest.approx(expected, rel=1e-12, abs=0)


def test_a_discarded_model_is_collected_while_the_predictor_lives():
    model, layers = _transformer_layers()
    predictor = GradientPredictor.for_model(model)
    outputs = _activations(layers, 5, 0)
    predictor.predict_many(layers, outputs)
    predictor.train_step_many(layers, outputs, *_gradients(layers, 0))
    refs = [weakref.ref(layer) for layer in layers]
    del model, layers, outputs
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(predictor._plans) == 0


# ----------------------------------------------------------------------
# The folded stack: batch sums reduced straight into the buffer, one
# division — the reference's batch means, byte for byte.
# ----------------------------------------------------------------------
_layer = st.tuples(
    st.sampled_from(["conv", "linear2d", "linear3d"]),
    st.integers(1, 6),  # units
    st.sampled_from([(1, 1), (1, 5), (2, 3), (1, 7), (3, 1)]),  # plane extent
    st.integers(1, 40),  # batch
    st.booleans(),  # non-contiguous activation
)


def _layer_and_output(spec, rng, magnitude):
    kind, units, extent, batch, strided = spec
    if kind == "conv":
        layer, shape = nn.Conv2d(2, units, 1, rng=rng), (batch, units, *extent)
    elif kind == "linear2d":
        layer, shape = nn.Linear(3, units, rng=rng), (batch, units)
    else:
        layer, shape = nn.Linear(3, units, rng=rng), (batch, extent[1], units)
    values = rng.standard_normal(shape) * 2.0**magnitude
    output = values.astype(np.float32)
    if strided:
        # Same values, reversed memory order along every axis.
        output = np.ascontiguousarray(output.T).T
    return layer, output


@given(
    specs=st.lists(_layer, min_size=1, max_size=5),
    shared_batch=st.booleans(),
    magnitude=st.integers(-20, 20),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_folded_stack_is_the_reference_batch_means(
    specs, shared_batch, magnitude, seed
):
    """Whatever the batch sizes (one shared count, or mixed counts,
    which take the per-layer means) and the activation's memory layout,
    each layer's slice of the stacked input holds
    ``reorganize_activations``' plane bit for bit."""
    rng = np.random.default_rng(seed)
    if shared_batch:
        specs = [(*spec[:3], specs[0][3], spec[4]) for spec in specs]
    entries = [_layer_and_output(spec, rng, magnitude) for spec in specs]
    layers = [layer for layer, _ in entries]
    outputs = [output for _, output in entries]
    predictor = GradientPredictor(max(layer.gradient_size() for layer in layers))
    plan = predictor._plan(layers, outputs)
    means = mock.Mock(wraps=reorganize.reorganize_activations)
    with mock.patch.object(reorganize, "reorganize_activations", means):
        stack = predictor._forward(layers, outputs)
    assert stack.plan is plan
    if not plan.folded:
        return
    # A call with a non-C-contiguous activation (a reversed layout with
    # more than one axis past 1) or with mixed batch counts takes the
    # per-layer means; one sharing a batch count is divided by it once.
    strided = not all(output.flags.c_contiguous for output in outputs)
    mixed = len({spec[3] for spec in specs}) > 1
    assert (plan.divisor is None) == mixed
    assert means.call_count == (len(layers) if strided or mixed else 0)
    expected = np.zeros(plan.shape, dtype=np.float32)
    for layer, output, (rows, columns) in zip(layers, outputs, plan.places):
        plane = reorganize.reorganize_activations(layer, output)
        expected[rows, columns] = plane.reshape(rows.stop - rows.start, -1)
    assert stack.inputs.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# The stacks the benchmark workloads send: the served layers of one BP
# batch at the benchmark's model and batch shapes (batch 32; 16x16
# images; source length 6, teacher-forced target length 7).
# ----------------------------------------------------------------------
def _bp_batch_plan(engine, inputs, targets):
    engine.train_batch(inputs, targets, Phase.BP)
    (plan,) = [
        plan for plans in engine.predictor._plans.values() for plan in plans.values()
    ]
    layers = [ref() for ref in plan.refs]
    for bucket in plan.buckets:
        assert {layers[index].gradient_size() for index, _, _ in bucket.members} == {
            bucket.width
        }
    return plan


def test_the_transformer_stack_has_one_bucket_per_row_width():
    rng = np.random.default_rng(0)
    model = Seq2SeqTransformer(15, 15, d_model=32, num_heads=2, d_ff=64, rng=rng)
    engine = adagp_engine(
        model,
        CrossEntropyLoss(),
        optimizer=nn.Adam(model.parameters(), lr=2e-3),
        backend="fused",
    )
    plan = _bp_batch_plan(
        engine,
        (rng.integers(3, 15, (32, 6)), rng.integers(3, 15, (32, 7))),
        rng.integers(3, 15, (32, 7)),
    )
    assert len(plan.refs) == 49
    assert plan.spans == [(0, 1551, 33), (1551, 1743, 65)]
    assert plan.extents == ((1, 6), (1, 7))
    assert type(plan.divisor) is int and plan.divisor == 32


@pytest.mark.parametrize("name,width", [("VGG13", 33), ("ResNet50", 49)])
def test_an_image_mini_sends_its_classifier_alone(name, width):
    rng = np.random.default_rng(0)
    engine = adagp_engine(
        build_mini(name, 10, rng=rng), CrossEntropyLoss(), lr=0.02, backend="fused"
    )
    plan = _bp_batch_plan(
        engine,
        rng.standard_normal((32, 3, 16, 16)).astype(np.float32),
        rng.integers(0, 10, 32),
    )
    assert plan.spans == [(0, 10, width)]
    assert plan.extents == ((1, 1),)
    assert type(plan.divisor) is int and plan.divisor == 32
