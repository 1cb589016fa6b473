"""Full-size ResNet layer specs (He et al. 2016), bottleneck variants."""

from __future__ import annotations

from .specs import ModelSpec, SpecBuilder

# Bottleneck block counts per stage.
RESNET_CONFIGS: dict[str, tuple[int, int, int, int]] = {
    "ResNet50": (3, 4, 6, 3),
    "ResNet101": (3, 4, 23, 3),
    "ResNet152": (3, 8, 36, 3),
}

_STAGE_MID = (64, 128, 256, 512)
_EXPANSION = 4


def _bottleneck(
    builder: SpecBuilder, mid: int, stride: int, downsample: bool, tag: str
) -> None:
    """One bottleneck: 1x1 reduce -> 3x3 -> 1x1 expand (+1x1 shortcut)."""
    out = mid * _EXPANSION
    builder.residual(
        tag,
        lambda b: (
            b.conv(mid, 1, name=f"{tag}.conv1")
            .conv(mid, 3, stride=stride, padding=1, name=f"{tag}.conv2")
            .conv(out, 1, name=f"{tag}.conv3")
        ),
        (lambda b: b.conv(out, 1, stride=stride, name=f"{tag}.downsample"))
        if downsample
        else None,
    )


def resnet_spec(name: str, input_size: int = 224, num_classes: int = 1000) -> ModelSpec:
    """Build a ResNet-50/101/152 spec.

    ``input_size=32`` uses the standard CIFAR stem (3x3 stride-1 conv, no
    max-pool); ``input_size=224`` uses the ImageNet stem (7x7/2 + pool).
    """
    if name not in RESNET_CONFIGS:
        raise KeyError(
            f"unknown ResNet variant {name!r}; choose from {list(RESNET_CONFIGS)}"
        )
    blocks = RESNET_CONFIGS[name]
    builder = SpecBuilder(name, (3, input_size, input_size))
    if input_size >= 64:
        builder.conv(64, 7, stride=2, padding=3, name="stem.conv")
        builder.pool(3, 2, padding=1)
    else:
        builder.conv(64, 3, stride=1, padding=1, name="stem.conv")
    for stage, (count, mid) in enumerate(zip(blocks, _STAGE_MID), start=1):
        for block in range(count):
            stride = 2 if (stage > 1 and block == 0) else 1
            downsample = block == 0  # channel change (or stride) on entry
            _bottleneck(
                builder, mid, stride, downsample, tag=f"layer{stage}.{block}"
            )
    builder.global_pool()
    builder.linear(num_classes, name="fc")
    return builder.build()
