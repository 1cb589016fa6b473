"""Static shape checker tests: every registered spec must validate, and
deliberately corrupted specs must be caught at the first bad layer."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.shapes import check_all_specs, check_spec
from repro.models import spec_registry
from repro.models.specs import LayerKind, SpecBuilder
from repro.nn import layers as nn

ALL_MODELS = list(spec_registry.CLASSIFICATION_MODELS)
# Specs whose layer lists genuinely fork/merge (MobileNet's inverted
# residuals keep the spec sequential: the add preserves shape).
BRANCHING = ["Inception-V3", "Inception-V4", "DenseNet121", "YOLO-v3"]


# ----------------------------------------------------------------------
# The whole zoo validates.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset", spec_registry.DATASETS)
@pytest.mark.parametrize("model", ALL_MODELS)
def test_registered_spec_is_consistent(model, dataset):
    assert check_spec(spec_registry.spec_for(model, dataset)) == []


@pytest.mark.parametrize("model", ["Transformer", "YOLO-v3"])
def test_non_classification_specs_are_consistent(model):
    assert check_spec(spec_registry.spec_for(model, "ImageNet")) == []


def test_check_all_specs_clean():
    assert check_all_specs() == []


def test_branching_specs_really_branch():
    # Guard the fixture: the four branching specs must exercise the
    # fork/merge path (layer inputs that are not the previous output).
    for model in BRANCHING:
        spec = spec_registry.spec_for(model, "ImageNet")
        chains = 0
        cur = spec.input_shape
        for layer in spec.layers:
            if (layer.in_channels, layer.in_h, layer.in_w) != cur:
                chains += 1
            cur = (layer.out_channels, layer.out_h, layer.out_w)
        assert chains > 0, f"{model} spec is purely sequential"


# ----------------------------------------------------------------------
# Corruptions are caught.
# ----------------------------------------------------------------------
def _corrupt(spec, index, **changes):
    layers = list(spec.layers)
    layers[index] = dataclasses.replace(layers[index], **changes)
    return dataclasses.replace(spec, layers=layers)


def test_catches_wrong_in_channels_mid_chain():
    spec = spec_registry.spec_for("VGG16", "Cifar10")
    # Odd delta: channel widths are even, so no concat subset can match.
    bad = _corrupt(spec, 3, in_channels=spec.layers[3].in_channels + 3)
    findings = check_spec(bad)
    assert len(findings) == 1
    assert findings[0].rule == "shape-spec"
    assert findings[0].line == 4


def test_catches_wrong_spatial_arithmetic():
    spec = spec_registry.spec_for("ResNet50", "Cifar10")
    index = next(
        i for i, l in enumerate(spec.layers) if l.kind == LayerKind.CONV
    )
    bad = _corrupt(spec, index, out_h=spec.layers[index].out_h + 1)
    findings = check_spec(bad)
    assert findings and "spatial" in findings[0].message


def test_catches_branch_merge_width_mismatch():
    spec = spec_registry.spec_for("Inception-V3", "ImageNet")
    # Find a merge layer: input channels differ from the previous
    # layer's output (a concat consumer), then corrupt its width.
    cur = spec.input_shape
    merge_index = None
    for i, layer in enumerate(spec.layers):
        declared = (layer.in_channels, layer.in_h, layer.in_w)
        if declared != cur and layer.in_channels > cur[0]:
            merge_index = i
            break
        cur = (layer.out_channels, layer.out_h, layer.out_w)
    assert merge_index is not None
    bad = _corrupt(
        spec,
        merge_index,
        in_channels=spec.layers[merge_index].in_channels + 3,
    )
    findings = check_spec(bad)
    assert findings and findings[0].line == merge_index + 1
    assert "unreachable" in findings[0].message


def test_catches_depthwise_channel_change():
    spec = spec_registry.spec_for("MobileNet-V2", "Cifar10")
    index = next(
        i
        for i, l in enumerate(spec.layers)
        if l.kind == LayerKind.DEPTHWISE_CONV
    )
    bad = _corrupt(
        spec, index, out_channels=spec.layers[index].out_channels + 3
    )
    findings = check_spec(bad)
    assert findings and "depthwise" in findings[0].message


def test_catches_bad_linear_fan_in():
    builder = SpecBuilder("toy", (3, 8, 8))
    builder.conv(16, 3, padding=1).pool(2).linear(10)
    spec = builder.build()
    assert check_spec(spec) == []
    bad = _corrupt(spec, 2, in_channels=spec.layers[2].in_channels + 1)
    findings = check_spec(bad)
    assert findings and "flattened" in findings[0].message


# ----------------------------------------------------------------------
# Live module graphs: no static check, the first forward raises.
# ----------------------------------------------------------------------
def _forward(model, *shape):
    return model.forward(np.zeros((2, *shape), dtype=np.float32))


def test_module_checker_catches_channel_mismatch():
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1),
        nn.Conv2d(16, 8, 3, padding=1),  # wrong: gets 8 channels
    )
    with pytest.raises(ValueError, match="16 channels"):
        _forward(model, 3, 32, 32)


def test_module_checker_catches_residual_mismatch():
    model = nn.Residual(main=nn.Conv2d(8, 16, 3, padding=1))
    with pytest.raises(ValueError, match="residual"):
        _forward(model, 8, 16, 16)


def test_module_checker_catches_bad_linear_after_flatten():
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1),
        nn.Flatten(),
        nn.Linear(4 * 8 * 8 + 1, 10),
    )
    with pytest.raises(ValueError, match="Linear"):
        _forward(model, 3, 8, 8)


def test_module_checker_concat_branches():
    good = nn.ConcatBranches(
        [nn.Conv2d(3, 4, 1), nn.Conv2d(3, 6, 3, padding=1)]
    )
    assert _forward(good, 3, 16, 16).shape == (2, 10, 16, 16)
    bad = nn.ConcatBranches(
        [nn.Conv2d(3, 4, 1), nn.Conv2d(3, 6, 3)]  # spatial shrinks
    )
    with pytest.raises(ValueError):
        _forward(bad, 3, 16, 16)
