"""The reference backend: the pre-refactor layer math, moved verbatim.

Every op here is byte-for-byte the idiom the layers used before the
backend seam existed — per-call ``einsum(optimize=True)``, per-call
im2col allocation — so the default training numerics are unchanged and
alternative backends have a fixed reference to be equivalence-tested
against (``tests/nn/test_backend.py``, atol <= 1e-5).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .. import functional as F
from .base import Backend, ConvCtx, NormCtx, channel_axes, register_backend


class NumpyBackend(Backend):
    """Plain NumPy ops, exactly as the layers originally wrote them."""

    name = "numpy"

    # -- unfold / fold ---------------------------------------------------
    def unfold(self, x, kernel, stride, padding, fill_value=0.0):
        return F.im2col(x, kernel, stride, padding, fill_value)

    def fold(self, cols, input_shape, kernel, stride, padding):
        return F.col2im(cols, input_shape, kernel, stride, padding)

    # -- convolution -----------------------------------------------------
    def conv2d_forward(self, x, weight, bias, stride, padding):
        out_channels, _, kernel, _ = weight.shape
        cols, out_h, out_w = self.unfold(x, kernel, stride, padding)
        w_flat = weight.reshape(out_channels, -1)
        out = np.einsum("ok,bkl->bol", w_flat, cols, optimize=True)
        if bias is not None:
            out = out + bias[None, :, None]
        ctx = ConvCtx(self, cols, x.shape, kernel, stride, padding)
        return out.reshape(x.shape[0], out_channels, out_h, out_w), ctx

    def conv2d_backward(self, grad_out, weight, ctx, with_bias=False):
        batch = grad_out.shape[0]
        out_channels = weight.shape[0]
        g_flat = grad_out.reshape(batch, out_channels, -1)
        grad_w = np.einsum(
            "bol,bkl->ok", g_flat, ctx.cols, optimize=True
        ).reshape(weight.shape)
        grad_b = g_flat.sum(axis=(0, 2)) if with_bias else None
        w_flat = weight.reshape(out_channels, -1)
        grad_cols = np.einsum("ok,bol->bkl", w_flat, g_flat, optimize=True)
        grad_x = self.fold(
            grad_cols, ctx.x_shape, ctx.kernel, ctx.stride, ctx.padding
        )
        return grad_x, grad_w, grad_b

    # -- linear ----------------------------------------------------------
    def linear_forward(self, x, weight, bias):
        out = x @ weight.T
        if bias is not None:
            out = out + bias
        return out

    def linear_backward(self, x, grad_out, weight, with_bias=False):
        out_features, in_features = weight.shape
        # Collapse any leading dims (batch, sequence, ...) into one.
        x2 = x.reshape(-1, in_features)
        g2 = grad_out.reshape(-1, out_features)
        grad_w = g2.T @ x2
        grad_b = g2.sum(axis=0) if with_bias else None
        grad_x = (g2 @ weight).reshape(x.shape)
        return grad_x, grad_w, grad_b

    # -- attention contractions ------------------------------------------
    def attn_scores(self, q, k):
        return np.einsum("bhqd,bhkd->bhqk", q, k, optimize=True)

    def attn_context(self, p, v):
        return np.einsum("bhqk,bhkd->bhqd", p, v, optimize=True)

    def attn_context_t(self, p, g):
        return np.einsum("bhqk,bhqd->bhkd", p, g, optimize=True)

    # -- batch normalisation ----------------------------------------------
    def batchnorm_forward(
        self, x, gamma, beta, eps, stats=None, relu=False, need_ctx=True
    ):
        axes, shape = channel_axes(x.ndim)
        mean, var = self.moments(x, axes) if stats is None else stats
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
        if relu:
            out = np.maximum(out, 0.0)
        ctx = NormCtx(self, x_hat, inv_std) if need_ctx else None
        return out, mean, var, ctx

    def batchnorm_backward(self, grad_out, gamma, ctx, training):
        x_hat, inv_std = ctx.saved, ctx.inv_std
        axes, shape = channel_axes(grad_out.ndim)
        inv_std = inv_std.reshape(shape)
        grad_gamma = (grad_out * x_hat).sum(axis=axes)
        grad_beta = grad_out.sum(axis=axes)
        g = grad_out * gamma.reshape(shape)
        if not training:
            return g * inv_std, grad_gamma, grad_beta
        g_mean = g.mean(axis=axes, keepdims=True)
        gx_mean = (g * x_hat).mean(axis=axes, keepdims=True)
        # Standard batchnorm backward; the element count cancels into
        # the two means.
        grad_x = inv_std * (g - g_mean - x_hat * gx_mean)
        return grad_x, grad_gamma, grad_beta

    # -- normalization moments -------------------------------------------
    def moments(
        self,
        x: np.ndarray,
        axes: Union[int, tuple[int, ...]],
        keepdims: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        return (
            x.mean(axis=axes, keepdims=keepdims),
            x.var(axis=axes, keepdims=keepdims),
        )


register_backend("numpy", NumpyBackend)
