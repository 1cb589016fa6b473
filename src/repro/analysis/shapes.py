"""Static shape checker: validate specs and module graphs without a GEMM.

Two entry points:

* :func:`check_spec` — walks a :class:`~repro.models.specs.ModelSpec`
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
* :func:`check_module` — symbolically propagates an ``('N', C, H, W)``
  shape through a live :class:`~repro.nn.module.Module` tree by type
  dispatch (Sequential/Residual/ConcatBranches/DenseConcat recurse),
  so a mis-wired model fails in milliseconds instead of at the first
  forward pass.

Both report the **first** inconsistent layer (expected vs declared) —
downstream mismatches are cascades of the first one.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Union

from .findings import Finding

#: Symbolic batch dimension.
N = "N"

Dim = Union[int, str]
Shape = tuple[Dim, ...]


def _fmt(shape: Sequence[Dim]) -> str:
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


# ----------------------------------------------------------------------
# Module checking.
# ----------------------------------------------------------------------
class _ShapeError(Exception):
    def __init__(self, where: str, message: str) -> None:
        super().__init__(message)
        self.where = where
        self.message = message


def _require_rank(shape: Shape, rank: int, where: str, what: str) -> None:
    if len(shape) != rank:
        raise _ShapeError(
            where, f"{what} expects rank-{rank} input, got {_fmt(shape)}"
        )


def _propagate(module, shape: Shape, where: str) -> Shape:
    """Symbolic output shape of ``module`` on ``shape``.

    Unknown module types propagate the shape unchanged — the checker is
    conservative: it only reports inconsistencies it can prove.
    """
    from repro.nn import layers as L

    if isinstance(module, L.Sequential):
        for i, child in enumerate(module.layers):
            shape = _propagate(child, shape, f"{where}.layers[{i}]")
        return shape

    if isinstance(module, L.Residual):
        main = _propagate(module.main, shape, f"{where}.main")
        short = _propagate(module.shortcut, shape, f"{where}.shortcut")
        if main != short:
            raise _ShapeError(
                where,
                f"residual branches disagree: main {_fmt(main)} vs "
                f"shortcut {_fmt(short)}",
            )
        return main

    if isinstance(module, L.ConcatBranches):
        outs = [
            _propagate(branch, shape, f"{where}.branches[{i}]")
            for i, branch in enumerate(module.branches)
        ]
        first = outs[0]
        for i, out in enumerate(outs[1:], start=1):
            if len(out) != len(first) or out[0] != first[0] or out[2:] != first[2:]:
                raise _ShapeError(
                    where,
                    f"concat branches disagree outside the channel axis: "
                    f"branch 0 {_fmt(first)} vs branch {i} {_fmt(out)}",
                )
        channels = sum(out[1] for out in outs)
        return (first[0], channels) + tuple(first[2:])

    if isinstance(module, L.DenseConcat):
        out = _propagate(module.main, shape, f"{where}.main")
        if len(out) != len(shape) or out[0] != shape[0] or out[2:] != shape[2:]:
            raise _ShapeError(
                where,
                f"dense concat main branch changes non-channel dims: "
                f"input {_fmt(shape)} vs main {_fmt(out)}",
            )
        return (shape[0], shape[1] + out[1]) + tuple(shape[2:])

    if isinstance(module, L.Conv2d):
        _require_rank(shape, 4, where, "Conv2d")
        if shape[1] != module.in_channels:
            raise _ShapeError(
                where,
                f"Conv2d expects {module.in_channels} channels, input has "
                f"{shape[1]}",
            )
        out_h = _conv_out(shape[2], module.kernel_size, module.stride, module.padding)
        out_w = _conv_out(shape[3], module.kernel_size, module.stride, module.padding)
        if out_h <= 0 or out_w <= 0:
            raise _ShapeError(
                where,
                f"Conv2d output spatial size {out_h}x{out_w} is empty for "
                f"input {_fmt(shape)}",
            )
        return (shape[0], module.out_channels, out_h, out_w)

    if isinstance(module, (L.MaxPool2d, L.AvgPool2d)):
        _require_rank(shape, 4, where, type(module).__name__)
        out_h = _conv_out(shape[2], module.kernel_size, module.stride, module.padding)
        out_w = _conv_out(shape[3], module.kernel_size, module.stride, module.padding)
        if out_h <= 0 or out_w <= 0:
            raise _ShapeError(
                where,
                f"{type(module).__name__} output {out_h}x{out_w} is empty "
                f"for input {_fmt(shape)}",
            )
        return (shape[0], shape[1], out_h, out_w)

    if isinstance(module, L.AdaptiveAvgPool2d):
        _require_rank(shape, 4, where, "AdaptiveAvgPool2d")
        return (shape[0], shape[1]) + tuple(module.output_size)

    if isinstance(module, L.GlobalAvgPool2d):
        _require_rank(shape, 4, where, "GlobalAvgPool2d")
        return (shape[0], shape[1])

    if isinstance(module, L.BatchNorm2d):
        _require_rank(shape, 4, where, "BatchNorm2d")
        if shape[1] != module.num_features:
            raise _ShapeError(
                where,
                f"BatchNorm2d expects {module.num_features} channels, "
                f"input has {shape[1]}",
            )
        return shape

    if isinstance(module, L.BatchNorm1d):
        if len(shape) < 2 or shape[1] != module.num_features:
            raise _ShapeError(
                where,
                f"BatchNorm1d expects feature dim {module.num_features}, "
                f"input is {_fmt(shape)}",
            )
        return shape

    if isinstance(module, L.LayerNorm):
        if not shape or shape[-1] != module.normalized_shape:
            raise _ShapeError(
                where,
                f"LayerNorm expects last dim {module.normalized_shape}, "
                f"input is {_fmt(shape)}",
            )
        return shape

    if isinstance(module, L.Linear):
        if not shape or shape[-1] != module.in_features:
            raise _ShapeError(
                where,
                f"Linear expects last dim {module.in_features}, input is "
                f"{_fmt(shape)}",
            )
        return tuple(shape[:-1]) + (module.out_features,)

    if isinstance(module, L.Flatten):
        if len(shape) < 2:
            raise _ShapeError(where, f"Flatten expects rank >= 2, got {_fmt(shape)}")
        tail = shape[1:]
        if any(isinstance(d, str) for d in tail):
            raise _ShapeError(
                where, f"Flatten cannot fold symbolic dims {_fmt(shape)}"
            )
        return (shape[0], math.prod(tail))

    # Identity, Dropout, activations, and anything this checker does not
    # model: shape-preserving by assumption.
    return shape


def check_module(model, input_shape: Sequence[int]) -> list[Finding]:
    """Symbolically shape-check a live module tree.

    ``input_shape`` excludes the batch dim — pass ``(3, 32, 32)`` for a
    CIFAR CNN; the batch stays symbolic.
    """
    name = type(model).__name__
    shape: Shape = (N, *input_shape)
    try:
        _propagate(model, shape, name)
    except _ShapeError as exc:
        return [
            Finding(
                file=f"module:{name}",
                line=0,
                rule="shape-module",
                message=f"{exc.where}: {exc.message}",
            )
        ]
    return []
