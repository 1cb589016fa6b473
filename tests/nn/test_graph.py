"""The module table (``repro.nn.graph.trace``) on every model the repo
trains.

The engine's layer list, the predictor's sizing and the pipeline
partition all read the table, so its order has to be the order a
forward runs the predictable layers — a claim that used to live only in
a docstring.  Which of those layers the predictor serves (no BatchNorm
follows them) is read off the table's structure; the tests hold that
rule to the forward's dataflow.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import CLASSIFICATION_MODELS, MiniYolo, Seq2SeqTransformer, build_mini
from repro.nn.graph import trace
from repro.nn.layers.norm import _BatchNorm


def _case(name):
    """``(model, inputs)`` for one model name."""
    rng = np.random.default_rng(0)
    if name == "Seq2SeqTransformer":
        model = Seq2SeqTransformer(
            12, 12, d_model=8, num_heads=2, d_ff=16,
            num_encoder_layers=2, num_decoder_layers=2, rng=rng,
        )
        return model, (rng.integers(3, 12, (4, 6)), rng.integers(3, 12, (4, 5)))
    if name == "Transformer":  # the transformer workload's shape: 49 Linears
        model = Seq2SeqTransformer(15, 15, d_model=32, num_heads=2, d_ff=64, rng=rng)
        return model, (rng.integers(3, 15, (4, 6)), rng.integers(3, 15, (4, 5)))
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


#: (served, predictable) per model: on the image minis every conv feeds
#: a BatchNorm except DenseNet's, whose layer-closing and transition
#: convs feed a concat or a pool.
SERVED = {
    "VGG13": (1, 11), "VGG16": (1, 14), "VGG19": (1, 17),
    "ResNet50": (1, 18), "ResNet101": (1, 24), "ResNet152": (1, 33),
    "DenseNet121": (9, 16), "DenseNet161": (11, 20),
    "DenseNet169": (12, 22), "DenseNet201": (13, 24),
    "Inception-V3": (1, 17), "Inception-V4": (1, 23), "MobileNet-V2": (1, 23),
    "MiniYolo": (1, 9), "Transformer": (49, 49),
}


def test_every_model_has_a_served_count():
    assert set(SERVED) == {*CLASSIFICATION_MODELS, "MiniYolo", "Transformer"}


@pytest.mark.parametrize("name", sorted(SERVED))
def test_served_layers_are_those_whose_output_no_batchnorm_reads(name):
    """The structural rule (next sibling is a BatchNorm) against the
    dataflow of one forward: a predictable layer is BN-fed exactly when
    a BatchNorm receives its output array."""
    model, inputs = _case(name)
    table = trace(model)
    outputs = {}  # id(output) -> layer
    kept, normalised = [], set()  # every array seen stays alive: ids stay unique
    for layer in table.predictable:

        def hook(module, output):
            kept.append(output)
            outputs[id(output)] = module

        layer.forward_hook = hook
    for module in model.modules():
        if isinstance(module, _BatchNorm):

            def forward(x, _forward=module.forward):
                kept.append(x)
                normalised.add(id(x))
                return _forward(x)

            module.forward = forward
    model(inputs)
    fed = [layer for key, layer in outputs.items() if key in normalised]
    served = table.served
    assert (len(served), len(table.predictable)) == SERVED[name]
    assert {id(layer) for layer in fed} == {
        id(layer) for layer in table.predictable if layer not in served
    }
    assert [id(layer) for layer in served] == [
        id(layer) for layer in table.predictable if layer not in fed
    ]


def test_a_residual_shortcut_conv_before_a_batchnorm_is_fed():
    rng = np.random.default_rng(0)
    shortcut_conv = nn.Conv2d(3, 4, 1, bias=False, rng=rng)
    model = nn.Sequential(
        nn.Residual(
            nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=rng), nn.ReLU()),
            nn.Sequential(shortcut_conv, nn.BatchNorm2d(4)),
        ),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 2, rng=rng),
    )
    table = trace(model)
    assert len(table.predictable) == 3
    assert shortcut_conv not in table.served
    assert table.served == [table.predictable[0], table.predictable[2]]


def test_a_conv_last_in_its_sequential_is_served():
    """Its next sibling would be under another parent: a BatchNorm that
    follows the enclosing block does not make the conv BN-fed."""
    rng = np.random.default_rng(0)
    last = nn.Conv2d(4, 4, 3, padding=1, rng=rng)
    model = nn.Sequential(
        nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=rng), nn.ReLU(), last),
        nn.BatchNorm2d(4),
    )
    table = trace(model)
    assert last in table.served
    assert table.served == table.predictable
