"""Tests for LayerSpec / ModelSpec / SpecBuilder and the spec zoo."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import spec_for
from repro.models.spec_registry import CLASSIFICATION_MODELS
from repro.models.specs import LayerKind, LayerSpec, SpecBuilder

# sha256 (first 16 hex digits) of every registered spec's name, input
# shape and full LayerSpec field tuples.  Every cycle, traffic and energy
# number is a function of these rows: a refactor of the builder or of a
# spec file must leave every digest as it is, and a fix that moves one
# updates exactly the digests of the specs it means to change.
PINNED_DIGESTS = {
    ("ResNet50", "Cifar10"): "53fbce86491f8689",
    ("ResNet50", "Cifar100"): "9c5016a4fe32e6df",
    ("ResNet50", "ImageNet"): "5a9b66b9488f5eeb",
    ("ResNet101", "Cifar10"): "9f7fe4d96b36c117",
    ("ResNet101", "Cifar100"): "f88d235f2b49bdac",
    ("ResNet101", "ImageNet"): "d75c21564d12b3dd",
    ("ResNet152", "Cifar10"): "bf5265ca0efaeef6",
    ("ResNet152", "Cifar100"): "b9da394b05a42cc5",
    ("ResNet152", "ImageNet"): "73c2cc9953d298e3",
    ("Inception-V4", "Cifar10"): "f9369b08f07bea6d",
    ("Inception-V4", "Cifar100"): "decee6e8f7767551",
    ("Inception-V4", "ImageNet"): "2812f01922114a7d",
    ("Inception-V3", "Cifar10"): "4ea97be0887bd5fb",
    ("Inception-V3", "Cifar100"): "6aa2c72306aa27d5",
    ("Inception-V3", "ImageNet"): "ac76d0267b5d76d8",
    ("VGG13", "Cifar10"): "4206d16a4b3c6b78",
    ("VGG13", "Cifar100"): "88cfbd359f00d25e",
    ("VGG13", "ImageNet"): "3fbbef75de35c20b",
    ("VGG16", "Cifar10"): "ae6a5521c0adc824",
    ("VGG16", "Cifar100"): "c89fa86829159727",
    ("VGG16", "ImageNet"): "a6be6ce305354b28",
    ("VGG19", "Cifar10"): "bbcbd78752212a70",
    ("VGG19", "Cifar100"): "ab3215c4f4aa2792",
    ("VGG19", "ImageNet"): "d96f46994d53daf7",
    ("DenseNet121", "Cifar10"): "ad44fda508a11f43",
    ("DenseNet121", "Cifar100"): "66874ba1ffe84330",
    ("DenseNet121", "ImageNet"): "7344e3102d9e99ce",
    ("DenseNet161", "Cifar10"): "97b6b5bddbae1116",
    ("DenseNet161", "Cifar100"): "4829cba6a0f54dab",
    ("DenseNet161", "ImageNet"): "cb2ab4ff9f3c1575",
    ("DenseNet169", "Cifar10"): "8f9f75cd88d35e69",
    ("DenseNet169", "Cifar100"): "fd729c2db41f2829",
    ("DenseNet169", "ImageNet"): "da315e451160f2fb",
    ("DenseNet201", "Cifar10"): "4fda870ab56c168e",
    ("DenseNet201", "Cifar100"): "249c491f80973b53",
    ("DenseNet201", "ImageNet"): "cd6af8732e2f46cd",
    ("MobileNet-V2", "Cifar10"): "399b4e2c6f7d10e2",
    ("MobileNet-V2", "Cifar100"): "784367bee84a05bc",
    ("MobileNet-V2", "ImageNet"): "6bf54bfdd5561655",
    ("Transformer", "ImageNet"): "eb736286b317a15a",
    ("YOLO-v3", "ImageNet"): "8edb8a85afb06ae3",
}


def spec_digest(spec) -> str:
    rows = [spec.name, list(spec.input_shape), [dataclasses.astuple(l) for l in spec.layers]]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "model, dataset", list(PINNED_DIGESTS), ids=[f"{m}-{d}" for m, d in PINNED_DIGESTS]
)
def test_spec_rows_match_pinned_digest(model, dataset):
    assert spec_digest(spec_for(model, dataset)) == PINNED_DIGESTS[model, dataset]


def test_every_registered_spec_is_pinned():
    registered = [(m, d) for m in CLASSIFICATION_MODELS for d in ("Cifar10", "Cifar100", "ImageNet")]
    registered += [("Transformer", "ImageNet"), ("YOLO-v3", "ImageNet")]
    assert sorted(PINNED_DIGESTS) == sorted(registered)


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

    def test_concat_nests_paths_and_none_is_identity(self):
        builder = SpecBuilder("t", (8, 16, 16))
        builder.concat(
            "blk",
            None,
            lambda b: b.conv(4, 1, name="c0").concat(
                "blk.split",
                lambda b: b.conv(2, 1, name="c1"),
                lambda b: b.conv(3, 3, padding=1, name="c2"),
            ),
        )
        assert builder.shape == (8 + 2 + 3, 16, 16)
        ins = {l.name: l.in_channels for l in builder.build().layers}
        assert ins == {"c0": 8, "c1": 4, "c2": 4}

    def test_residual_projection_reads_the_block_input(self):
        builder = SpecBuilder("t", (8, 16, 16))
        builder.residual(
            "blk",
            lambda b: b.conv(16, 3, stride=2, padding=1, name="main"),
            lambda b: b.conv(16, 1, stride=2, name="proj"),
        )
        assert builder.shape == (16, 8, 8)
        proj = builder.build().layers[-1]
        assert (proj.name, proj.in_channels, proj.in_h) == ("proj", 8, 16)

    def test_side_head_restores_the_running_shape(self):
        builder = SpecBuilder("t", (8, 16, 16))
        builder.side(lambda b: b.conv(75, 1, name="detect"))
        assert builder.shape == (8, 16, 16)
        assert builder.build().layers[-1].out_channels == 75

    def test_route_upsamples_and_concatenates(self):
        builder = SpecBuilder("t", (8, 16, 16))
        saved = builder.shape
        builder.conv(4, 3, stride=2, padding=1).route("head2", saved)
        assert builder.shape == (4 + 8, 16, 16)

    # One test per merge the builder refuses; each error names the block.
    def test_concat_branch_spatial_mismatch_raises(self):
        builder = SpecBuilder("t", (8, 16, 16))
        with pytest.raises(ValueError, match="mixed9: concat"):
            builder.concat("mixed9", lambda b: b.conv(4, 1), lambda b: b.conv(4, 3))

    def test_residual_shortcut_mismatch_raises(self):
        builder = SpecBuilder("t", (8, 16, 16))
        with pytest.raises(ValueError, match="layer1.0: residual"):
            builder.residual("layer1.0", lambda b: b.conv(16, 1))

    def test_depthwise_channel_change_raises(self):
        builder = SpecBuilder("t", (8, 16, 16))
        with pytest.raises(ValueError, match="block1.dw: depthwise"):
            builder.conv(16, 3, padding=1, depthwise=True, name="block1.dw")

    def test_route_upsample_mismatch_raises(self):
        builder = SpecBuilder("t", (8, 16, 16))
        saved = builder.shape
        with pytest.raises(ValueError, match="head3: 2x upsample"):
            builder.conv(4, 3, padding=1).route("head3", saved)

    def test_non_positive_channel_count_raises(self):
        builder = SpecBuilder("t", (8, 16, 16))
        with pytest.raises(ValueError, match="trans1.conv: output shape"):
            builder.conv(8 // 16, 1, name="trans1.conv")


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
            "Inception-V3": 23.8e6,
            "Inception-V4": 42.7e6,
        }
        for name, expected in published.items():
            actual = spec_for(name, "ImageNet").total_weight_params
            assert abs(actual - expected) / expected < 0.05, name

    def test_known_mac_counts(self):
        published = {
            "ResNet50": 4.1e9,
            "VGG16": 15.5e9,
            "MobileNet-V2": 0.30e9,
            "Inception-V3": 5.7e9,
            "Inception-V4": 12.3e9,
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
