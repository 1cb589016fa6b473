"""Full-size DenseNet layer specs (Huang et al. 2017)."""

from __future__ import annotations

from .specs import ModelSpec, SpecBuilder

# (block config, growth rate, stem features)
DENSENET_CONFIGS: dict[str, tuple[tuple[int, ...], int, int]] = {
    "DenseNet121": ((6, 12, 24, 16), 32, 64),
    "DenseNet161": ((6, 12, 36, 24), 48, 96),
    "DenseNet169": ((6, 12, 32, 32), 32, 64),
    "DenseNet201": ((6, 12, 48, 32), 32, 64),
}


def densenet_spec(
    name: str, input_size: int = 224, num_classes: int = 1000
) -> ModelSpec:
    """Build a DenseNet spec.

    Every dense layer is the standard bottleneck pair
    ``1x1 -> 4*growth`` then ``3x3 -> growth``, concatenated onto the
    running feature map; transitions halve channels and spatial size.
    """
    if name not in DENSENET_CONFIGS:
        raise KeyError(
            f"unknown DenseNet variant {name!r}; choose from {list(DENSENET_CONFIGS)}"
        )
    block_config, growth, stem = DENSENET_CONFIGS[name]
    builder = SpecBuilder(name, (3, input_size, input_size))
    if input_size >= 64:
        builder.conv(stem, 7, stride=2, padding=3, name="stem.conv")
        builder.pool(3, 2, padding=1)
    else:
        builder.conv(stem, 3, stride=1, padding=1, name="stem.conv")
    for block_idx, num_layers in enumerate(block_config, start=1):
        for layer_idx in range(num_layers):
            tag = f"dense{block_idx}.{layer_idx}"
            builder.concat(
                tag,
                None,
                lambda b: (
                    b.conv(4 * growth, 1, name=f"{tag}.conv1")
                    .conv(growth, 3, padding=1, name=f"{tag}.conv2")
                ),
            )
        if block_idx != len(block_config):
            builder.conv(builder.channels // 2, 1, name=f"trans{block_idx}.conv")
            builder.pool(2, 2)
    builder.global_pool()
    builder.linear(num_classes, name="fc")
    return builder.build()
