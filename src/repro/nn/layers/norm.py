"""Normalization layers."""

from __future__ import annotations

import numpy as np

from ..backend import current_backend
from ..module import (
    NO_GRAD,
    Module,
    Parameter,
    check_backward_cache,
    is_grad_enabled,
)
from .. import init

#: Variance guard of every normalisation layer, and the weight a
#: training batch's statistics get in BatchNorm's running ones
#: (PyTorch's defaults).
NORM_EPS = 1e-5
BN_MOMENTUM = 0.1


class _BatchNorm(Module):
    """Batch normalisation over axis 1 of an ``_ndim``-D tensor.

    The arithmetic is the backend's ``batchnorm_forward`` /
    ``batchnorm_backward`` pair; what lives here is the input check and
    the running statistics.
    """

    _ndim: int
    statistics = ("running_mean", "running_var")

    def __init__(self, num_features: int):
        super().__init__()
        self.num_features = num_features
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        # Bumped whenever the running stats change; the fold passes'
        # conv+BN cache keys on it (plus Parameter versions).
        self.stats_version = 0

    def _normalize(self, x: np.ndarray, relu: bool = False) -> np.ndarray:
        """The forward proper, ``relu`` optionally clamped onto it (the
        BN+ReLU fold's entry point): batch statistics in training mode
        — advancing the running ones — and the running ones otherwise."""
        if x.ndim != self._ndim or x.shape[1] != self.num_features:
            raise ValueError(
                f"{type(self).__name__} expected {self._ndim}-D input with "
                f"{self.num_features} channels, got {x.shape}"
            )
        grad = is_grad_enabled()
        out, mean, var, ctx = current_backend().batchnorm_forward(
            x,
            self.weight.data,
            self.bias.data,
            NORM_EPS,
            stats=None if self.training else (self.running_mean, self.running_var),
            relu=relu,
            need_ctx=grad,
        )
        if self.training:
            # PyTorch-compatible running stats: running_var stores the
            # unbiased (Bessel-corrected) estimate, while normalisation
            # uses the biased batch variance.
            count = x.size // self.num_features
            unbiased_var = var * (count / (count - 1)) if count > 1 else var
            self.running_mean = (
                (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            ).astype(np.float32)
            self.running_var = (
                (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * unbiased_var
            ).astype(np.float32)
            self.stats_version += 1
        self._saved = ctx if grad else NO_GRAD
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._normalize(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        ctx = self._saved
        check_backward_cache(ctx, self)
        # On the backend that produced the context (see NormCtx).
        grad_x, grad_gamma, grad_beta = ctx.backend.batchnorm_backward(
            grad_out, self.weight.data, ctx, self.training
        )
        self.weight.accumulate_grad(grad_gamma)
        self.bias.accumulate_grad(grad_beta)
        return grad_x


class BatchNorm2d(_BatchNorm):
    """Batch normalization over the channel dim of NCHW tensors."""

    _ndim = 4


class BatchNorm1d(_BatchNorm):
    """Batch normalization over (batch, features) tensors."""

    _ndim = 2


class LayerNorm(Module):
    """Layer normalization over the last dimension (Transformer-style)."""

    def __init__(self, normalized_shape: int):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.weight = Parameter(init.ones((normalized_shape,)), name="weight")
        self.bias = Parameter(init.zeros((normalized_shape,)), name="bias")

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.normalized_shape:
            raise ValueError(
                f"LayerNorm expected last dim {self.normalized_shape}, got {x.shape}"
            )
        mean, var = current_backend().moments(x, -1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + NORM_EPS)
        x_hat = (x - mean) * inv_std
        self._saved = (x_hat, inv_std) if is_grad_enabled() else NO_GRAD
        return self.weight.data * x_hat + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        x_hat, inv_std = self._saved
        reduce_axes = tuple(range(grad_out.ndim - 1))
        self.weight.accumulate_grad((grad_out * x_hat).sum(axis=reduce_axes))
        self.bias.accumulate_grad(grad_out.sum(axis=reduce_axes))
        g = grad_out * self.weight.data
        g_mean = g.mean(axis=-1, keepdims=True)
        gx_mean = (g * x_hat).mean(axis=-1, keepdims=True)
        return inv_std * (g - g_mean - x_hat * gx_mean)
