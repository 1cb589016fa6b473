"""Full-size Inception-V3 / Inception-V4 layer specs.

Block structures and channel counts follow the published architectures
(Szegedy et al. 2016).  Each mixed block is a
:meth:`~repro.models.specs.SpecBuilder.concat` of its branch paths, as the
live zoo's ``nn.ConcatBranches``.  1x7/7x1 factorized convolutions use the
rectangular-kernel support of :class:`~repro.models.specs.LayerSpec`.
"""

from __future__ import annotations

from .specs import ModelSpec, Path, SpecBuilder

# A branch is a list of steps run in order from the block input: a conv
# tuple (out_ch, kh, kw, stride, pad_h, pad_w), with kw=0 meaning square;
# _POOL, the 3x3 stride-1 pool that opens a pooling branch; or a list of
# sub-branches, a split that shares everything before it (nested concat).
_POOL = "pool"


def _path(tag: str, steps: list) -> Path:
    """The path of one branch: convs named ``{tag}.conv{i}``, the
    sub-branches of a split ``{tag}.b{j}``."""

    def path(builder: SpecBuilder) -> None:
        convs = 0
        for step in steps:
            if step == _POOL:
                builder.pool(3, 1, padding=1)
                continue
            if isinstance(step, list):
                _mixed(builder, tag, step)
                continue
            out_ch, kh, kw, stride, ph, pw = step
            builder.conv(
                out_ch,
                kh,
                stride=stride,
                padding=ph,
                kernel_w=kw,
                padding_w=pw,
                name=f"{tag}.conv{convs}",
            )
            convs += 1

    return path


def _mixed(builder: SpecBuilder, tag: str, branches: list[list]) -> None:
    """A mixed block: the concat of its branches, named ``{tag}.b{i}``."""
    builder.concat(
        tag, *(_path(f"{tag}.b{index}", steps) for index, steps in enumerate(branches))
    )


def _sq(out_ch: int, k: int, stride: int = 1, pad: int = 0) -> tuple:
    return (out_ch, k, 0, stride, pad, pad)


def _rect(out_ch: int, kh: int, kw: int, ph: int, pw: int) -> tuple:
    return (out_ch, kh, kw, 1, ph, pw)


# ----------------------------------------------------------------------
# Inception-V3
# ----------------------------------------------------------------------
def _v3_inception_a(builder: SpecBuilder, pool_features: int, tag: str) -> None:
    _mixed(builder, tag, [
        [_sq(64, 1)],
        [_sq(48, 1), _sq(64, 5, pad=2)],
        [_sq(64, 1), _sq(96, 3, pad=1), _sq(96, 3, pad=1)],
        [_POOL, _sq(pool_features, 1)],
    ])


def _v3_reduction_a(builder: SpecBuilder, tag: str) -> None:
    builder.concat(
        tag,
        lambda b: b.conv(384, 3, stride=2, name=f"{tag}.b0.conv0"),
        lambda b: (
            b.conv(64, 1, name=f"{tag}.b1.conv0")
            .conv(96, 3, padding=1, name=f"{tag}.b1.conv1")
            .conv(96, 3, stride=2, name=f"{tag}.b1.conv2")
        ),
        lambda b: b.pool(3, 2),
    )


def _v3_inception_b(builder: SpecBuilder, c7: int, tag: str) -> None:
    _mixed(builder, tag, [
        [_sq(192, 1)],
        [_sq(c7, 1), _rect(c7, 1, 7, 0, 3), _rect(192, 7, 1, 3, 0)],
        [
            _sq(c7, 1),
            _rect(c7, 7, 1, 3, 0),
            _rect(c7, 1, 7, 0, 3),
            _rect(c7, 7, 1, 3, 0),
            _rect(192, 1, 7, 0, 3),
        ],
        [_POOL, _sq(192, 1)],
    ])


def _v3_reduction_b(builder: SpecBuilder, tag: str) -> None:
    builder.concat(
        tag,
        lambda b: (
            b.conv(192, 1, name=f"{tag}.b0.conv0")
            .conv(320, 3, stride=2, name=f"{tag}.b0.conv1")
        ),
        lambda b: (
            b.conv(192, 1, name=f"{tag}.b1.conv0")
            .conv(192, 1, kernel_w=7, padding=0, padding_w=3, name=f"{tag}.b1.conv1")
            .conv(192, 7, kernel_w=1, padding=3, padding_w=0, name=f"{tag}.b1.conv2")
            .conv(192, 3, stride=2, name=f"{tag}.b1.conv3")
        ),
        lambda b: b.pool(3, 2),
    )


def _v3_inception_c(builder: SpecBuilder, tag: str) -> None:
    # Both 3x3 branches end in a 1x3 || 3x1 split of one shared prefix.
    split = [[_rect(384, 1, 3, 0, 1)], [_rect(384, 3, 1, 1, 0)]]
    _mixed(builder, tag, [
        [_sq(320, 1)],
        [_sq(384, 1), split],
        [_sq(448, 1), _sq(384, 3, pad=1), split],
        [_POOL, _sq(192, 1)],
    ])


def inception_v3_spec(input_size: int = 299, num_classes: int = 1000) -> ModelSpec:
    """Inception-V3: stem + 3xA, reduction, 4xB, reduction, 2xC."""
    builder = SpecBuilder("Inception-V3", (3, input_size, input_size))
    if input_size >= 128:
        builder.conv(32, 3, stride=2, name="stem.conv0")
        builder.conv(32, 3, name="stem.conv1")
        builder.conv(64, 3, padding=1, name="stem.conv2")
        builder.pool(3, 2)
        builder.conv(80, 1, name="stem.conv3")
        builder.conv(192, 3, name="stem.conv4")
        builder.pool(3, 2)
    else:
        # CIFAR adaptation: stride-1 stem, no pooling.
        builder.conv(32, 3, padding=1, name="stem.conv0")
        builder.conv(32, 3, padding=1, name="stem.conv1")
        builder.conv(64, 3, padding=1, name="stem.conv2")
        builder.conv(80, 1, name="stem.conv3")
        builder.conv(192, 3, padding=1, name="stem.conv4")
    _v3_inception_a(builder, 32, "mixed0")
    _v3_inception_a(builder, 64, "mixed1")
    _v3_inception_a(builder, 64, "mixed2")
    _v3_reduction_a(builder, "mixed3")
    _v3_inception_b(builder, 128, "mixed4")
    _v3_inception_b(builder, 160, "mixed5")
    _v3_inception_b(builder, 160, "mixed6")
    _v3_inception_b(builder, 192, "mixed7")
    _v3_reduction_b(builder, "mixed8")
    _v3_inception_c(builder, "mixed9")
    _v3_inception_c(builder, "mixed10")
    builder.global_pool()
    builder.linear(num_classes, name="fc")
    return builder.build()


# ----------------------------------------------------------------------
# Inception-V4
# ----------------------------------------------------------------------
def _v4_inception_a(builder: SpecBuilder, tag: str) -> None:
    _mixed(builder, tag, [
        [_sq(96, 1)],
        [_sq(64, 1), _sq(96, 3, pad=1)],
        [_sq(64, 1), _sq(96, 3, pad=1), _sq(96, 3, pad=1)],
        [_POOL, _sq(96, 1)],
    ])


def _v4_reduction_a(builder: SpecBuilder, tag: str) -> None:
    builder.concat(
        tag,
        lambda b: b.conv(384, 3, stride=2, name=f"{tag}.b0.conv0"),
        lambda b: (
            b.conv(192, 1, name=f"{tag}.b1.conv0")
            .conv(224, 3, padding=1, name=f"{tag}.b1.conv1")
            .conv(256, 3, stride=2, name=f"{tag}.b1.conv2")
        ),
        lambda b: b.pool(3, 2),
    )


def _v4_inception_b(builder: SpecBuilder, tag: str) -> None:
    _mixed(builder, tag, [
        [_sq(384, 1)],
        [_sq(192, 1), _rect(224, 1, 7, 0, 3), _rect(256, 7, 1, 3, 0)],
        [
            _sq(192, 1),
            _rect(192, 7, 1, 3, 0),
            _rect(224, 1, 7, 0, 3),
            _rect(224, 7, 1, 3, 0),
            _rect(256, 1, 7, 0, 3),
        ],
        [_POOL, _sq(128, 1)],
    ])


def _v4_reduction_b(builder: SpecBuilder, tag: str) -> None:
    builder.concat(
        tag,
        lambda b: (
            b.conv(192, 1, name=f"{tag}.b0.conv0")
            .conv(192, 3, stride=2, name=f"{tag}.b0.conv1")
        ),
        lambda b: (
            b.conv(256, 1, name=f"{tag}.b1.conv0")
            .conv(256, 1, kernel_w=7, padding=0, padding_w=3, name=f"{tag}.b1.conv1")
            .conv(320, 7, kernel_w=1, padding=3, padding_w=0, name=f"{tag}.b1.conv2")
            .conv(320, 3, stride=2, name=f"{tag}.b1.conv3")
        ),
        lambda b: b.pool(3, 2),
    )


def _v4_inception_c(builder: SpecBuilder, tag: str) -> None:
    # Both 3x3 branches end in a 1x3 || 3x1 split of one shared prefix.
    split = [[_rect(256, 1, 3, 0, 1)], [_rect(256, 3, 1, 1, 0)]]
    _mixed(builder, tag, [
        [_sq(256, 1)],
        [_sq(384, 1), split],
        [_sq(384, 1), _rect(448, 1, 3, 0, 1), _rect(512, 3, 1, 1, 0), split],
        [_POOL, _sq(256, 1)],
    ])


def inception_v4_spec(input_size: int = 299, num_classes: int = 1000) -> ModelSpec:
    """Inception-V4: stem + 4xA, reduction, 7xB, reduction, 3xC."""
    builder = SpecBuilder("Inception-V4", (3, input_size, input_size))
    if input_size >= 128:
        builder.conv(32, 3, stride=2, name="stem.conv0")
        builder.conv(32, 3, name="stem.conv1")
        builder.conv(64, 3, padding=1, name="stem.conv2")
        # Mixed 3a: conv 96/3x3 s2 || maxpool.
        builder.concat(
            "stem.mixed3a",
            lambda b: b.conv(96, 3, stride=2, name="stem.mixed3a.conv"),
            lambda b: b.pool(3, 2),
        )
        # Mixed 4a: two conv branches -> 96 + 96 = 192.
        builder.concat(
            "stem.mixed4a",
            lambda b: (
                b.conv(64, 1, name="stem.mixed4a.b0.conv0")
                .conv(96, 3, name="stem.mixed4a.b0.conv1")
            ),
            lambda b: (
                b.conv(64, 1, name="stem.mixed4a.b1.conv0")
                .conv(64, 7, kernel_w=1, padding=3, padding_w=0, name="stem.mixed4a.b1.conv1")
                .conv(64, 1, kernel_w=7, padding=0, padding_w=3, name="stem.mixed4a.b1.conv2")
                .conv(96, 3, name="stem.mixed4a.b1.conv3")
            ),
        )
        # Mixed 5a: conv 192/3x3 s2 || maxpool -> 384.
        builder.concat(
            "stem.mixed5a",
            lambda b: b.conv(192, 3, stride=2, name="stem.mixed5a.conv"),
            lambda b: b.pool(3, 2),
        )
    else:
        builder.conv(32, 3, padding=1, name="stem.conv0")
        builder.conv(32, 3, padding=1, name="stem.conv1")
        builder.conv(64, 3, padding=1, name="stem.conv2")
        builder.conv(192, 3, padding=1, name="stem.conv3")
        builder.conv(384, 3, padding=1, name="stem.conv4")
    for i in range(4):
        _v4_inception_a(builder, f"inceptionA.{i}")
    _v4_reduction_a(builder, "reductionA")
    for i in range(7):
        _v4_inception_b(builder, f"inceptionB.{i}")
    _v4_reduction_b(builder, "reductionB")
    for i in range(3):
        _v4_inception_c(builder, f"inceptionC.{i}")
    builder.global_pool()
    builder.linear(num_classes, name="fc")
    return builder.build()
