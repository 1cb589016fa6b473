"""FusedBackend: reshaped-BLAS ops with an im2col workspace pool.

Same math as :class:`~.numpy_backend.NumpyBackend`, different substrate
idiom (per-op equivalence is pinned at ``atol <= 1e-5`` by
``tests/nn/test_backend.py``):

* GEMM-shaped contractions run as direct ``np.matmul`` on reshaped
  views instead of generic ``einsum(optimize=True)``, whose per-call
  contraction-path search is pure overhead at these sizes.
* The einsum that remains (the conv weight-gradient batched GEMM, where
  einsum's internal strategy beats a tensordot transpose-copy) reuses a
  cached contraction path keyed by (formula, shapes).
* im2col columns live in a :class:`WorkspacePool` — a free-list of
  scratch buffers keyed by shape — so a layer's forward -> backward pair
  and consecutive batches of the same shape recycle one allocation
  instead of malloc/free-ing the largest tensors of the step.  Buffers
  are checked out per forward (micro-batched pipelines hold several in
  flight) and returned by the matching backward, or by
  ``Module.clear_caches`` for forward-only (Phase-GP) batches.
* 1x1 stride-1 convolutions skip im2col entirely: the input *is* the
  column matrix as a reshape view and the forward is one batched matmul
  — the bottleneck-conv fast path that dominates ResNet-style models.
* Batch normalisation works off one centred tensor ``x - mean``, shared
  by the variance (a contraction, no squared temporary), the output and
  the backward (two reductions, four elementwise passes); forward-only
  streams normalise in place, one allocation per call.
* Forward-only (``nn.no_grad``) streams run through the shared fold
  pipeline (:mod:`repro.nn.passes`): conv+BN(+ReLU) collapses into one
  GEMM with per-channel-rescaled weights, BN+ReLU into one
  ``batchnorm_forward(relu=True)`` call, linear+activation into a GEMM
  with the activation applied in place — version-cache invalidation
  and eligibility rules live with the passes (DESIGN.md §8, §10).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from .base import ConvCtx, NormCtx, channel_axes, register_backend
from .numpy_backend import NumpyBackend


class WorkspacePool:
    """Free-list of reusable scratch buffers keyed by (shape, dtype).

    ``acquire`` pops a parked buffer or allocates a fresh one; callers
    that are done with a buffer ``release`` it back.  Never-released
    buffers are simply garbage-collected when their owner drops them, so
    forward-only streams cannot leak; ``max_per_key`` bounds how many
    same-shaped buffers park at once (micro-batched pipelines check out
    several before any is returned).
    """

    def __init__(self, max_per_key: int = 8) -> None:
        self.max_per_key = max_per_key
        self._free: dict[tuple, list[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        # Buffers currently checked out (acquired, not yet released).
        # Zero after a forward-only step means the stream ran
        # allocation-clean: every workspace went straight back.
        self.outstanding = 0

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        self.outstanding += 1
        key = (tuple(shape), np.dtype(dtype).str)
        parked = self._free.get(key)
        if parked:
            self.hits += 1
            return parked.pop()
        self.misses += 1
        return np.empty(shape, dtype=dtype)

    def release(self, array: np.ndarray) -> None:
        # Deliberately unclamped: a negative value is the visible
        # symptom of a release-without-acquire (or double-release)
        # accounting bug, which clamping at zero would absorb — and
        # would let a same-sized genuine leak read as balanced.
        self.outstanding -= 1
        key = (array.shape, array.dtype.str)
        parked = self._free.setdefault(key, [])
        if len(parked) < self.max_per_key and not any(
            buf is array for buf in parked
        ):
            parked.append(array)

    def parked_bytes(self) -> int:
        return sum(
            buf.nbytes for parked in self._free.values() for buf in parked
        )

    def metrics(self):
        """``repro_backend_pool_*`` rows (``repro.obs`` pulls them)."""
        return [
            ("repro_backend_pool_hits", "counter", self.hits, {}),
            ("repro_backend_pool_misses", "counter", self.misses, {}),
            ("repro_backend_pool_outstanding", "gauge", self.outstanding, {}),
            ("repro_backend_pool_parked_bytes", "gauge", self.parked_bytes(), {}),
        ]

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self._free.clear()


class FusedBackend(NumpyBackend):
    """BLAS-matmul ops, cached contraction paths, pooled im2col buffers."""

    name = "fused"

    def __init__(self, max_buffers_per_shape: int = 8) -> None:
        self.pool = WorkspacePool(max_per_key=max_buffers_per_shape)
        self._paths: dict[tuple, list] = {}

    # -- workspace management --------------------------------------------
    def acquire_cols(self, shape, dtype) -> Optional[np.ndarray]:
        return self.pool.acquire(shape, dtype)

    def release(self, array: np.ndarray) -> None:
        self.pool.release(array)

    def reset_stats(self) -> None:
        self.pool.reset_stats()

    # -- no-grad graph rewriting -----------------------------------------
    def fold_pipeline(self):
        # Lazy import: the passes package imports the layer classes,
        # which import this package back at module load.
        from ..passes import default_pipeline

        return default_pipeline()

    # -- cached einsum contraction paths ---------------------------------
    def _einsum(self, formula: str, *operands: np.ndarray, dtype=None):
        key = (formula, tuple(op.shape for op in operands), dtype)
        path = self._paths.get(key)
        if path is None:
            path, _ = np.einsum_path(formula, *operands, optimize="optimal")
            self._paths[key] = path
        return np.einsum(formula, *operands, optimize=path, dtype=dtype)

    # -- unfold into pooled workspace ------------------------------------
    def unfold(self, x, kernel, stride, padding, fill_value=0.0):
        batch, channels, height, width = x.shape
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        buf = self.pool.acquire(
            (batch, channels * kernel * kernel, out_h * out_w), x.dtype
        )
        return F.im2col(x, kernel, stride, padding, fill_value, out=buf)

    # -- convolution -----------------------------------------------------
    @staticmethod
    def _is_pointwise(kernel: int, stride: int, padding: int) -> bool:
        return kernel == 1 and stride == 1 and padding == 0

    def conv2d_forward(self, x, weight, bias, stride, padding):
        out_channels, _, kernel, _ = weight.shape
        batch = x.shape[0]
        if self._is_pointwise(kernel, stride, padding):
            # 1x1 fast path: the input already is the column matrix.
            out_h, out_w = x.shape[2], x.shape[3]
            cols = x.reshape(batch, x.shape[1], out_h * out_w)
            pooled = False
        else:
            cols, out_h, out_w = self.unfold(x, kernel, stride, padding)
            pooled = True
        w_flat = weight.reshape(out_channels, -1)
        out = np.matmul(w_flat, cols)
        if bias is not None:
            out += bias[None, :, None]
        ctx = ConvCtx(self, cols, x.shape, kernel, stride, padding, pooled=pooled)
        return out.reshape(batch, out_channels, out_h, out_w), ctx

    def conv2d_backward(self, grad_out, weight, ctx, with_bias=False):
        if ctx.released:
            # The cols workspace went back to the pool (first backward or
            # clear_caches) and may have been overwritten by another
            # layer; recomputing from it would be silent corruption.
            raise RuntimeError(
                "conv2d_backward called on a released context; run the "
                "layer's forward again before a second backward"
            )
        batch = grad_out.shape[0]
        out_channels = weight.shape[0]
        g_flat = grad_out.reshape(batch, out_channels, -1)
        # Batched-GEMM contraction over (batch, positions); the cached
        # path skips einsum's per-call contraction search (and measures
        # ~2x faster than the tensordot transpose-copy formulation).
        grad_w = self._einsum("bol,bkl->ok", g_flat, ctx.cols).reshape(
            weight.shape
        )
        grad_b = g_flat.sum(axis=(0, 2)) if with_bias else None
        w_flat = weight.reshape(out_channels, -1)
        if self._is_pointwise(ctx.kernel, ctx.stride, ctx.padding):
            grad_x = np.matmul(w_flat.T, g_flat).reshape(ctx.x_shape)
        else:
            grad_cols = np.matmul(
                w_flat.T, g_flat, out=self.pool.acquire(ctx.cols.shape, g_flat.dtype)
            )
            grad_x = self.fold(
                grad_cols, ctx.x_shape, ctx.kernel, ctx.stride, ctx.padding
            )
            self.pool.release(grad_cols)
            ctx.release()
        return grad_x, grad_w, grad_b

    # -- linear ----------------------------------------------------------
    def linear_forward(self, x, weight, bias):
        if x.ndim == 2:
            out = np.matmul(x, weight.T)
        else:
            x2 = x.reshape(-1, x.shape[-1])
            out = np.matmul(x2, weight.T).reshape(
                x.shape[:-1] + (weight.shape[0],)
            )
        if bias is not None:
            out += bias
        return out

    # -- attention contractions ------------------------------------------
    # Batched matmul on (swapaxes) views, the same reshaped-GEMM trick
    # as the convolutions: the head contraction is a stacked GEMM whose
    # 2-D slices keep one unit-stride axis, so BLAS takes them via its
    # lda/transpose flags without materializing copies.  This replaced
    # the cached-path einsums, which measured at ~0.98x of the reference
    # (einsum path search amortized but per-call dispatch overhead not);
    # direct matmul measures 1.1-3.8x across the four contractions on
    # both contiguous and split-heads-view operands.
    def attn_scores(self, q, k):
        return np.matmul(q, k.swapaxes(2, 3))

    def attn_context(self, p, v):
        return np.matmul(p, v)

    def attn_context_t(self, p, g):
        return np.matmul(p.swapaxes(2, 3), g)

    # -- batch normalisation ----------------------------------------------
    # Everything after the one mean pass works off the centred tensor
    # ``xc = x - mean``: the variance is a contraction of xc with itself,
    # the output is xc times one per-channel factor, and xc — never
    # x_hat — is what backward keeps, so the reference's four full-size
    # forward temporaries and seven backward passes become two and four.
    #
    # The variance must come from the *centred* buffer.  The single-pass
    # shortcut E[x^2] - E[x]^2 subtracts two numbers of size offset^2 to
    # get one of size std^2 and loses every digit once a channel's
    # offset is a few hundred standard deviations (post-ReLU activations
    # feeding the next BN are offset by construction); it breaks the
    # atol<=1e-5 equivalence pin long before that.  For the same reason
    # the mean is NumPy's pairwise ``x.mean`` — the reference's own, so
    # xc is bit-identical to the reference's — and not a faster
    # sequential sum.  ``moments`` (LayerNorm)
    # inherits the reference two-pass mean/var unchanged: reducing over
    # the last axis NumPy's pairwise reductions are already optimal.
    @staticmethod
    def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``sum(a * b)`` over every axis but 1, without the product."""
        axes = list(range(a.ndim))
        return np.einsum(a, axes, b, axes, [1])

    def batchnorm_forward(
        self, x, gamma, beta, eps, stats=None, relu=False, need_ctx=True
    ):
        axes, shape = channel_axes(x.ndim)
        mean = x.mean(axis=axes) if stats is None else stats[0]
        xc = x - mean.reshape(shape)
        if stats is None:
            var = self._channel_dot(xc, xc) / (x.size // x.shape[1])
        else:
            var = stats[1]
        inv_std = 1.0 / np.sqrt(var + eps)
        # Forward-only streams normalise in place: xc is the one
        # full-size allocation of the op.
        out = np.multiply(
            xc, (gamma * inv_std).reshape(shape), out=None if need_ctx else xc
        )
        out += beta.reshape(shape)
        if relu:
            np.maximum(out, 0.0, out=out)
        ctx = NormCtx(self, xc, inv_std) if need_ctx else None
        return out, mean, var, ctx

    def batchnorm_backward(self, grad_out, gamma, ctx, training):
        xc, inv_std = ctx.saved, ctx.inv_std
        _, shape = channel_axes(grad_out.ndim)
        # The two reductions every term below is built from.  (einsum's
        # plain accumulation is enough here: gradients carry no offset,
        # and mean(g) is only ever subtracted from g.)
        sum_g = np.einsum(grad_out, list(range(grad_out.ndim)), [1])
        sum_gxc = self._channel_dot(grad_out, xc)
        grad_gamma = sum_gxc * inv_std
        scale = (gamma * inv_std).reshape(shape)
        if not training:
            return grad_out * scale, grad_gamma, sum_g
        # scale * (g - mean(g) - x_hat * mean(g * x_hat)) with
        # x_hat = xc * inv_std folded into the per-channel coefficient.
        count = grad_out.size // grad_out.shape[1]
        grad_x = xc * (grad_gamma * inv_std / count).reshape(shape)
        np.subtract(grad_out, grad_x, out=grad_x)
        grad_x -= (sum_g / count).reshape(shape)
        grad_x *= scale
        return grad_x, grad_gamma, sum_g


register_backend("fused", FusedBackend)
