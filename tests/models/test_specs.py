"""Tests for LayerSpec / ModelSpec / SpecBuilder and the spec zoo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import spec_for
from repro.models.spec_registry import CLASSIFICATION_MODELS, all_specs
from repro.models.specs import LayerKind, LayerSpec, SpecBuilder


class TestLayerSpec:
    def test_conv_gemm_dims(self):
        spec = LayerSpec(
            name="c", kind=LayerKind.CONV, in_channels=16, out_channels=32,
            kernel_size=3, in_h=8, in_w=8, out_h=8, out_w=8,
        )
        assert spec.gemm_dims(4) == (32, 16 * 9, 8 * 8 * 4)
        assert spec.weight_params == 32 * 16 * 9
        assert spec.macs_forward(1) == 32 * 144 * 64

    def test_rectangular_kernel(self):
        spec = LayerSpec(
            name="c", kind=LayerKind.CONV, in_channels=8, out_channels=8,
            kernel_size=1, kernel_w=7, out_h=4, out_w=4,
        )
        assert spec.kernel_area == 7
        assert spec.weight_params == 8 * 8 * 7

    def test_depthwise_params(self):
        spec = LayerSpec(
            name="dw", kind=LayerKind.DEPTHWISE_CONV, in_channels=32,
            out_channels=32, kernel_size=3, out_h=4, out_w=4,
        )
        assert spec.weight_params == 32 * 9
        m, k, n = spec.gemm_dims(2)
        assert (m, k) == (1, 9)
        assert n == 32 * 16 * 2

    def test_linear_dims(self):
        spec = LayerSpec(
            name="fc", kind=LayerKind.LINEAR, in_channels=128, out_channels=10,
            out_h=1, out_w=1,
        )
        assert spec.gemm_dims(8) == (10, 128, 8)

    def test_pool_has_no_gemm(self):
        spec = LayerSpec(name="p", kind=LayerKind.POOL, out_channels=4)
        assert not spec.is_compute
        assert spec.macs_forward() == 0
        with pytest.raises(ValueError):
            spec.gemm_dims(1)


class TestSpecBuilder:
    def test_tracks_shapes(self):
        builder = SpecBuilder("t", (3, 32, 32))
        builder.conv(16, 3, padding=1).pool(2).conv(32, 3, stride=2, padding=1)
        assert (builder.channels, builder.height, builder.width) == (32, 8, 8)

    def test_linear_flattens(self):
        builder = SpecBuilder("t", (3, 8, 8))
        builder.conv(4, 3, padding=1).global_pool().linear(10)
        spec = builder.build()
        assert spec.layers[-1].in_channels == 4
        assert spec.layers[-1].out_channels == 10

    def test_invalid_geometry_raises(self):
        builder = SpecBuilder("t", (3, 4, 4))
        with pytest.raises(ValueError):
            builder.conv(8, 7)


class TestSpecZoo:
    @pytest.mark.parametrize("model", CLASSIFICATION_MODELS)
    def test_all_models_build_for_all_datasets(self, model):
        for dataset in ("Cifar10", "Cifar100", "ImageNet"):
            spec = spec_for(model, dataset)
            assert len(spec.compute_layers) > 5
            assert spec.total_weight_params > 1e5

    def test_known_parameter_counts(self):
        """Spec params must land near published model sizes."""
        published = {
            "ResNet50": 25.5e6,
            "VGG16": 138.3e6,
            "DenseNet121": 8.0e6,
            "MobileNet-V2": 3.5e6,
        }
        for name, expected in published.items():
            actual = spec_for(name, "ImageNet").total_weight_params
            assert abs(actual - expected) / expected < 0.05, name

    def test_known_mac_counts(self):
        published = {
            "ResNet50": 4.1e9,
            "VGG16": 15.5e9,
            "MobileNet-V2": 0.30e9,
        }
        for name, expected in published.items():
            actual = spec_for(name, "ImageNet").total_macs()
            assert abs(actual - expected) / expected < 0.1, name

    def test_vgg13_has_ten_convs(self):
        """Paper Figs 15/16 index VGG13 conv layers 1..10."""
        spec = spec_for("VGG13", "Cifar10")
        convs = [l for l in spec.layers if l.kind == LayerKind.CONV]
        assert len(convs) == 10

    def test_resnet_depth_ordering(self):
        sizes = [
            len(spec_for(name, "ImageNet").compute_layers)
            for name in ("ResNet50", "ResNet101", "ResNet152")
        ]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[1] < sizes[2]

    def test_yolov3_params(self):
        spec = spec_for("YOLO-v3")
        assert abs(spec.total_weight_params - 61.9e6) / 61.9e6 < 0.05

    def test_transformer_spec_has_attention_structure(self):
        spec = spec_for("Transformer")
        names = [l.name for l in spec.layers]
        assert any("enc0.self_attn.q_proj" in n for n in names)
        assert any("dec2.cross_attn.out_proj" in n for n in names)
        assert names[-1] == "generator"

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            spec_for("AlexNet")
        with pytest.raises(KeyError):
            spec_for("VGG13", "MNIST")

    def test_all_specs_returns_thirteen(self):
        specs = all_specs("Cifar10")
        assert len(specs) == 13

    def test_imagenet_models_are_bigger_than_cifar(self):
        for name in ("VGG13", "ResNet50", "DenseNet121"):
            cifar = spec_for(name, "Cifar10").total_macs()
            imagenet = spec_for(name, "ImageNet").total_macs()
            assert imagenet > 2 * cifar


@given(
    channels=st.integers(1, 64),
    out_channels=st.integers(1, 64),
    kernel=st.sampled_from([1, 3, 5, 7]),
    size=st.integers(7, 64),
    batch=st.integers(1, 8),
)
@settings(max_examples=50, deadline=None)
def test_conv_macs_equal_gemm_product(channels, out_channels, kernel, size, batch):
    """Property: MACs of a conv == product of its GEMM dims, any geometry."""
    if size < kernel:
        return
    builder = SpecBuilder("t", (channels, size, size))
    builder.conv(out_channels, kernel)
    spec = builder.build().layers[0]
    m, k, n = spec.gemm_dims(batch)
    assert spec.macs_forward(batch) == m * k * n
    assert spec.weight_params == m * k
