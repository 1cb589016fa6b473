"""The built-in fold passes: conv+BN(+ReLU), BN+ReLU, linear+activation.

Every pass follows the same eligibility rules the original one-off
conv+BN special case enforced:

* **no hooks** on any folded layer — a forward hook needs that layer's
  own output, which a fold never materializes;
* **running statistics only** for batch-norm folds — batch-stat
  normalization cannot be precomputed because the statistics depend on
  the output being folded away — so train-mode BN keeps the exact
  layer-by-layer path;
* **exact type matches** (``type(...) is``) — a subclass may override
  ``forward`` and silently lose its behaviour under a fold.

Folded ``run`` closures execute on :func:`current_backend`, so the same
plan runs on the fused BLAS backend and the native compiled backend
alike, and they re-validate input shapes with the same errors the
replaced layers would have raised.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..backend import current_backend
from ..layers.activations import ReLU, Sigmoid, Tanh
from ..layers.core import Conv2d, Linear
from ..layers.norm import NORM_EPS, BatchNorm1d, BatchNorm2d
from ..module import Module
from .. import functional as F
from .base import FoldCache, FoldedOp, Pass


def _hook_free(*layers: Module) -> bool:
    return all(layer.forward_hook is None for layer in layers)


class ConvBNReLUPass(Pass):
    """``Conv2d -> BatchNorm2d (-> ReLU)`` as one rescaled convolution.

    ``y = gamma * (conv(x) - mean) * inv_std + beta`` collapses into a
    single convolution with ``W' = W * s`` and
    ``b' = beta + s * (conv_bias - mean)`` where
    ``s = gamma / sqrt(running_var + eps)`` per output channel.  The
    folded weights are cached per (conv, bn) pair, keyed on the
    parameters' mutation versions plus the BN stats version.
    """

    name = "conv_bn_relu"

    def __init__(self) -> None:
        self.cache = FoldCache()

    @staticmethod
    def _versions(conv: Conv2d, bn: BatchNorm2d) -> tuple:
        return (
            conv.weight.version,
            conv.bias.version if conv.bias is not None else -1,
            bn.weight.version,
            bn.bias.version,
            bn.stats_version,
        )

    def _folded_params(self, conv: Conv2d, bn: BatchNorm2d):
        versions = self._versions(conv, bn)
        params = self.cache.lookup((conv, bn), versions)
        if params is None:
            scale = bn.weight.data / np.sqrt(bn.running_var + NORM_EPS)
            weight = (
                conv.weight.data * scale[:, None, None, None]
            ).astype(np.float32)
            conv_bias = (
                conv.bias.data if conv.bias is not None else np.float32(0.0)
            )
            bias = (
                bn.bias.data + scale * (conv_bias - bn.running_mean)
            ).astype(np.float32)
            params = self.cache.store((conv, bn), versions, (weight, bias))
        return params

    def match(self, layers: Sequence[Module], index: int) -> Optional[FoldedOp]:
        if index + 1 >= len(layers):
            return None
        conv, bn = layers[index], layers[index + 1]
        if type(conv) is not Conv2d or type(bn) is not BatchNorm2d:
            return None
        if bn.training or bn.num_features != conv.out_channels:
            return None
        if not _hook_free(conv, bn):
            return None
        matched = [conv, bn]
        relu = (
            index + 2 < len(layers)
            and type(layers[index + 2]) is ReLU
            and layers[index + 2].forward_hook is None
        )
        if relu:
            matched.append(layers[index + 2])

        def run(x: np.ndarray, conv=conv, bn=bn, relu=relu) -> np.ndarray:
            if x.ndim != 4 or x.shape[1] != conv.in_channels:
                raise ValueError(
                    f"Conv2d expected NCHW input with {conv.in_channels} "
                    f"channels, got shape {x.shape}"
                )
            weight, bias = self._folded_params(conv, bn)
            out, ctx = current_backend().conv2d_forward(
                x, weight, bias, conv.stride, conv.padding
            )
            ctx.release()
            if relu:
                np.maximum(out, 0.0, out=out)
            return out

        return FoldedOp(matched, run, self.name)


class BNReLUPass(Pass):
    """Eval-mode ``BatchNorm -> ReLU`` as one backend call, clamped in
    place.

    The pair runs as the layer's own ``batchnorm_forward`` dispatch with
    ``relu=True``: the backend clamps its private output buffer instead
    of a second module allocating one.  Nothing is precomputed, so there
    is no cache to invalidate.  Train-mode BN (what Phase-GP streams
    run) would fold the same way and is deliberately left to the layers:
    measured on ResNet50-mini, the saved allocation is paid back in plan
    bookkeeping and the GP step does not move.  Matches both 2-D (NCHW)
    and 1-D (NC) batch norm.
    """

    name = "bn_relu"

    cache = None

    def match(self, layers: Sequence[Module], index: int) -> Optional[FoldedOp]:
        if index + 1 >= len(layers):
            return None
        bn, act = layers[index], layers[index + 1]
        if type(bn) not in (BatchNorm2d, BatchNorm1d) or type(act) is not ReLU:
            return None
        if bn.training or not _hook_free(bn, act):
            return None

        def run(x: np.ndarray, bn=bn) -> np.ndarray:
            return bn._normalize(x, relu=True)

        return FoldedOp((bn, act), run, self.name)


class LinearActivationPass(Pass):
    """``Linear -> ReLU/Tanh/Sigmoid`` with the activation applied in
    place on the GEMM output.

    Nothing to precompute (the weights are read live at run time, so
    there is no staleness to invalidate); the fold saves the module
    dispatch and, for ReLU/Tanh, the activation's output allocation.
    """

    name = "linear_activation"

    cache = None

    _APPLY = {
        ReLU: lambda out: np.maximum(out, 0.0, out=out),
        Tanh: lambda out: np.tanh(out, out=out),
        # Sigmoid routes through the numerically-stable functional
        # (which allocates); exactness beats saving one buffer here.
        Sigmoid: lambda out: F.sigmoid(out),
    }

    def match(self, layers: Sequence[Module], index: int) -> Optional[FoldedOp]:
        if index + 1 >= len(layers):
            return None
        linear, act = layers[index], layers[index + 1]
        apply_act = self._APPLY.get(type(act))
        if type(linear) is not Linear or apply_act is None:
            return None
        if not _hook_free(linear, act):
            return None

        def run(x: np.ndarray, linear=linear, apply_act=apply_act) -> np.ndarray:
            if x.shape[-1] != linear.in_features:
                raise ValueError(
                    f"Linear expected last dim {linear.in_features}, "
                    f"got {x.shape}"
                )
            out = current_backend().linear_forward(
                x,
                linear.weight.data,
                linear.bias.data if linear.bias is not None else None,
            )
            return apply_act(out)

        return FoldedOp((linear, act), run, self.name)
