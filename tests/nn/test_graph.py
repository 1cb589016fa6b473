"""The module table (``repro.nn.graph.trace``) on every model the repo
trains.

The engine's layer list, the predictor's sizing and the pipeline
partition all read the table, so its order has to be the order a
forward runs the predictable layers — a claim that used to live only in
a docstring.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import CLASSIFICATION_MODELS, MiniYolo, Seq2SeqTransformer, build_mini
from repro.nn.graph import trace


def _case(name):
    """``(model, inputs)`` for one model name."""
    rng = np.random.default_rng(0)
    if name == "Seq2SeqTransformer":
        model = Seq2SeqTransformer(
            12, 12, d_model=8, num_heads=2, d_ff=16,
            num_encoder_layers=2, num_decoder_layers=2, rng=rng,
        )
        return model, (rng.integers(3, 12, (4, 6)), rng.integers(3, 12, (4, 5)))
    if name == "MiniYolo":
        model = MiniYolo(num_classes=3, grid_size=4, input_size=16, rng=rng)
        return model, rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
    model = build_mini(name, 10, rng=rng)
    return model, rng.standard_normal((4, 3, 16, 16)).astype(np.float32)


@pytest.mark.parametrize("name", [*CLASSIFICATION_MODELS, "Seq2SeqTransformer", "MiniYolo"])
def test_predictable_rows_are_in_forward_order_and_run_once(name):
    model, inputs = _case(name)
    layers = trace(model).predictable
    fired = []
    for layer in layers:
        layer.forward_hook = lambda module, _output: fired.append(module)
    model(inputs)
    assert len(fired) == len(layers)
    assert all(a is b for a, b in zip(fired, layers))


def test_rows_name_their_modules_and_parents():
    model, _ = _case("ResNet50")
    rows = trace(model).rows
    assert [(row.name, row.module) for row in rows] == list(model.named_modules())
    root, *rest = rows
    assert root.parent is None and root.name == "root"
    for row in rest:
        prefix = row.parent.name + "." if row.parent is not root else ""
        assert row.name.startswith(prefix)
        assert row.predictable == isinstance(row.module, nn.PredictableMixin)
        assert row.output_shape is None


def test_probe_records_shapes_and_restores_hooks_and_modes():
    model, inputs = _case("VGG13")
    bn = next(m for m in model.modules() if isinstance(m, nn.BatchNorm2d))
    running = bn.running_mean.copy()
    first = model.layers[0]
    first.eval()  # a mixed tree keeps its mix

    def hook(_module, _output):
        raise AssertionError("the probe must not fire a hook it did not install")

    model.layers[-1].forward_hook = hook
    table = trace(model, inputs[:1])
    assert table.rows[0].output_shape == (1, 10)
    convs = [row for row in table.rows if isinstance(row.module, nn.Conv2d)]
    assert convs[0].output_shape[:2] == (1, convs[0].module.out_channels)
    np.testing.assert_array_equal(bn.running_mean, running)
    assert not first.training and model.training and bn.training
    assert model.layers[-1].forward_hook is hook
    assert all(m.forward_hook is None for m in model.modules() if m is not model.layers[-1])
