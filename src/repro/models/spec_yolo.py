"""Full-size YOLO-v3 layer specs (Redmon & Farhadi 2018), 416x416 input.

Darknet-53 backbone plus the three multi-scale detection heads used for
PascalVOC (20 classes, 3 anchors per scale -> 75 output channels).
"""

from __future__ import annotations

from .specs import ModelSpec, SpecBuilder

# (residual repeats, channels) per darknet stage after the downsample conv.
_DARKNET_STAGES: list[tuple[int, int]] = [
    (1, 64),
    (2, 128),
    (8, 256),
    (8, 512),
    (4, 1024),
]


def _darknet_residual(builder: SpecBuilder, channels: int, tag: str) -> None:
    builder.residual(
        tag,
        lambda b: (
            b.conv(channels // 2, 1, name=f"{tag}.conv1")
            .conv(channels, 3, padding=1, name=f"{tag}.conv2")
        ),
    )


def _head_block(builder: SpecBuilder, mid: int, tag: str) -> None:
    """The 5-conv detection neck: alternating 1x1/3x3."""
    builder.conv(mid, 1, name=f"{tag}.conv0")
    builder.conv(mid * 2, 3, padding=1, name=f"{tag}.conv1")
    builder.conv(mid, 1, name=f"{tag}.conv2")
    builder.conv(mid * 2, 3, padding=1, name=f"{tag}.conv3")
    builder.conv(mid, 1, name=f"{tag}.conv4")


def yolov3_spec(
    input_size: int = 416, num_classes: int = 20, anchors_per_scale: int = 3
) -> ModelSpec:
    """Build the YOLO-v3 spec; detection output is 3*(5+classes) per cell."""
    det_channels = anchors_per_scale * (5 + num_classes)
    builder = SpecBuilder("YOLO-v3", (3, input_size, input_size))
    builder.conv(32, 3, padding=1, name="stem.conv")
    stage_outputs: list[tuple[int, int, int]] = []
    for stage_idx, (repeats, channels) in enumerate(_DARKNET_STAGES):
        builder.conv(channels, 3, stride=2, padding=1, name=f"down{stage_idx}.conv")
        for rep in range(repeats):
            _darknet_residual(builder, channels, tag=f"stage{stage_idx}.res{rep}")
        stage_outputs.append(builder.shape)

    # Scale 1 (13x13 for 416 input) runs on the backbone output; scales 2
    # and 3 route the previous neck through a 1x1 conv, upsample it 2x and
    # concatenate darknet stage 3 (512 ch) and stage 2 (256 ch).
    for scale, (mid, stage) in enumerate(((512, None), (256, 3), (128, 2)), start=1):
        tag = f"head{scale}"
        if stage is not None:
            builder.conv(mid, 1, name=f"{tag}.route.conv")
            builder.route(tag, stage_outputs[stage])
        _head_block(builder, mid, f"{tag}.neck")
        builder.side(
            lambda b: (
                b.conv(mid * 2, 3, padding=1, name=f"{tag}.conv")
                .conv(det_channels, 1, name=f"{tag}.detect")
            )
        )
    return builder.build()
