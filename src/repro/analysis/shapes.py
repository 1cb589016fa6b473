"""Static shape checker: validate model specs without a GEMM.

:func:`check_spec` walks a :class:`~repro.models.specs.ModelSpec`
layer list and proves (a) each layer's declared output follows from
its declared input by the conv/pool/linear arithmetic, and (b) each
layer's declared input is *reachable* from the dataflow so far.  The
zoo's specs are flat lists with ``set_shape`` splices at branch forks
and concat merges, so reachability is: sequential (input equals the
running shape), fork (input equals some earlier activation — a branch
re-reading the fork point, ResNet downsample shortcuts), or merge
(input channels are a concat — a subset-sum of earlier activation
channels at the same spatial size, which must include the running
shape; YOLO's detection-head routes additionally allow the running
shape to arrive through a 2x nearest-neighbour upsample).
:func:`check_all_specs` runs it over every registered spec.

It reports the **first** inconsistent layer (expected vs declared) —
downstream mismatches are cascades of the first one.  A live module has
no static check: its first forward raises on a mis-wired layer.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .findings import Finding


def _fmt(shape: Sequence[int]) -> str:
    return "(" + ", ".join(str(d) for d in shape) + ")"


# ----------------------------------------------------------------------
# Spec checking.
# ----------------------------------------------------------------------
def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _subset_sum(target: int, values: Iterable[int]) -> bool:
    """Whether ``target`` is a sum of a sub-multiset of ``values``."""
    if target == 0:
        return True
    if target < 0:
        return False
    reachable = {0}
    for value in values:
        if value <= 0 or value > target:
            continue
        reachable |= {r + value for r in reachable if r + value <= target}
        if target in reachable:
            return True
    return target in reachable


def check_spec(spec) -> list[Finding]:
    """Validate one ModelSpec; empty list means consistent."""
    from repro.models.specs import LayerKind

    findings: list[Finding] = []

    def fail(index: int, layer, message: str) -> list[Finding]:
        findings.append(
            Finding(
                file=f"spec:{spec.name}",
                line=index + 1,
                rule="shape-spec",
                message=f"layer {index + 1} '{layer.name}' ({layer.kind.value}): "
                + message,
            )
        )
        return findings

    # Attention specs (Transformer) are not a single dataflow chain —
    # q/k/v read the same input and the score/context matmuls consume
    # pairs of intermediates — so only per-layer arithmetic is checked.
    chain = not any(layer.kind == LayerKind.MATMUL for layer in spec.layers)

    cur: tuple[int, int, int] = spec.input_shape
    seen: list[tuple[int, int, int]] = [cur]

    for index, layer in enumerate(spec.layers):
        # ------------------------------------------------ internal checks
        if layer.kind in (LayerKind.CONV, LayerKind.DEPTHWISE_CONV, LayerKind.POOL):
            if layer.stride <= 0:
                return fail(index, layer, f"stride must be positive, got {layer.stride}")
            expect_h = _conv_out(
                layer.in_h, layer.kernel_h_eff, layer.stride, layer.padding
            )
            expect_w = _conv_out(
                layer.in_w, layer.kernel_w_eff, layer.stride, layer.padding_w_eff
            )
            if (layer.out_h, layer.out_w) != (expect_h, expect_w):
                return fail(
                    index,
                    layer,
                    f"output spatial size should be {expect_h}x{expect_w} "
                    f"(in {layer.in_h}x{layer.in_w}, k={layer.kernel_h_eff}"
                    f"x{layer.kernel_w_eff}, s={layer.stride}, "
                    f"p={layer.padding}/{layer.padding_w_eff}) but spec "
                    f"declares {layer.out_h}x{layer.out_w}",
                )
            if layer.kind == LayerKind.POOL and layer.out_channels != layer.in_channels:
                return fail(
                    index,
                    layer,
                    f"pool must preserve channels: in {layer.in_channels} "
                    f"vs out {layer.out_channels}",
                )
            if (
                layer.kind == LayerKind.DEPTHWISE_CONV
                and layer.out_channels != layer.in_channels
            ):
                return fail(
                    index,
                    layer,
                    f"depthwise conv must preserve channels: in "
                    f"{layer.in_channels} vs out {layer.out_channels}",
                )
        elif layer.kind in (LayerKind.NORM, LayerKind.ACT):
            if (layer.out_channels, layer.out_h, layer.out_w) != (
                layer.in_channels,
                layer.in_h,
                layer.in_w,
            ):
                return fail(index, layer, "norm/act layers must preserve shape")
        if layer.in_channels < 0 or layer.out_channels <= 0:
            return fail(
                index,
                layer,
                f"channel counts must be positive: in {layer.in_channels}, "
                f"out {layer.out_channels}",
            )

        if not chain:
            continue

        # --------------------------------------------------- chain checks
        declared = (layer.in_channels, layer.in_h, layer.in_w)
        if layer.kind == LayerKind.LINEAR:
            flat = cur[0] * cur[1] * cur[2]
            if layer.in_channels != flat:
                return fail(
                    index,
                    layer,
                    f"linear in_features {layer.in_channels} != flattened "
                    f"running shape {_fmt(cur)} = {flat}",
                )
            cur = (layer.out_channels, 1, 1)
            seen.append(cur)
            continue

        ok = declared == cur or declared in seen
        merged = False
        if not ok:
            # Concat merge: channels at this spatial size (directly or
            # via a 2x upsample of the running shape) must sum to the
            # declared input channels, and must include the running
            # shape — a merge that drops the branch just produced is a
            # wiring bug, not a concat.
            spatial = (layer.in_h, layer.in_w)
            if (cur[1], cur[2]) == spatial:
                contrib = cur[0]
            elif (cur[1] * 2, cur[2] * 2) == spatial:
                contrib = cur[0]  # nearest-neighbour 2x upsample route
            else:
                contrib = None
            if contrib is not None:
                others = [
                    shape[0]
                    for shape in seen[:-1]  # seen[-1] is cur itself
                    if (shape[1], shape[2]) == spatial
                    or (shape[1] * 2, shape[2] * 2) == spatial
                ]
                ok = merged = _subset_sum(layer.in_channels - contrib, others)
        if not ok:
            return fail(
                index,
                layer,
                f"declared input {_fmt(declared)} is unreachable: running "
                f"shape is {_fmt(cur)} and no fork/concat of earlier "
                "activations produces it",
            )

        if merged:
            # The concat result is a real activation other branches of
            # the next block will re-read as their fork point.
            seen.append(declared)
        cur = (layer.out_channels, layer.out_h, layer.out_w)
        seen.append(cur)

    return findings


def check_all_specs(dataset: Optional[str] = None) -> list[Finding]:
    """check_spec over every registered zoo spec (all datasets by default)."""
    from repro.models import spec_registry

    findings: list[Finding] = []
    datasets = [dataset] if dataset else list(spec_registry.DATASETS)
    for ds in datasets:
        for spec in spec_registry.all_specs(ds).values():
            findings.extend(check_spec(spec))
    # Transformer / YOLO build via spec_for but are not in all_specs.
    for extra in ("Transformer", "YOLO-v3"):
        findings.extend(check_spec(spec_registry.spec_for(extra, "ImageNet")))
    return findings
