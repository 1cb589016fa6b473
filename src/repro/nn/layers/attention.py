"""Multi-head attention with explicit backward, for the Transformer model."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import functional as F
from ..backend import current_backend
from ..module import NO_GRAD, Module, check_backward_cache, is_grad_enabled
from .core import Linear


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention.

    Because attention consumes three inputs, it exposes
    :meth:`attend`/:meth:`backward_attend` instead of the single-input
    ``forward``/``backward`` pair.  The internal projections are ordinary
    :class:`~repro.nn.layers.core.Linear` layers, so ADA-GP forward hooks
    and gradient prediction apply to them transparently.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(
                f"d_model={d_model} must be divisible by num_heads={num_heads}"
            )
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)

    # ------------------------------------------------------------------
    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, _heads, seq, _dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)

    # ------------------------------------------------------------------
    def attend(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute attention.  ``mask`` holds 1 for visible, 0 for blocked.

        ``mask`` broadcasts against ``(batch, heads, len_q, len_k)``.
        """
        backend = current_backend()
        q = self._split_heads(self.q_proj(query))
        k = self._split_heads(self.k_proj(key))
        v = self._split_heads(self.v_proj(value))
        # A Python float: NEP 50 lets it take the scores' dtype, where an
        # np.float64 scalar would run the rest of the model in float64
        # (DESIGN.md §1, dtype policy).
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = backend.attn_scores(q, k) * scale
        if mask is not None:
            scores = np.where(mask.astype(bool), scores, np.float32(-1e9))
        attn = F.softmax(scores, axis=-1)
        context = backend.attn_context(attn, v)
        # Under no_grad the per-head q/k/v and the full attention matrix
        # — the layer's largest retained tensors — are not kept.
        self._saved = (q, k, v, attn, scale) if is_grad_enabled() else NO_GRAD
        return self.out_proj(self._merge_heads(context))

    def backward_attend(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through attention; returns (d_query, d_key, d_value)."""
        check_backward_cache(self._saved, self)
        backend = current_backend()
        q, k, v, attn, scale = self._saved
        d_context = self._split_heads(self.out_proj.backward(grad_out))
        d_attn = backend.attn_scores(d_context, v)
        d_v = backend.attn_context_t(attn, d_context)
        # Softmax backward: dS = A * (dA - sum(dA * A)).
        inner = (d_attn * attn).sum(axis=-1, keepdims=True)
        d_scores = attn * (d_attn - inner)
        d_q = backend.attn_context(d_scores, k) * scale
        d_k = backend.attn_context_t(d_scores, q) * scale
        d_query = self.q_proj.backward(self._merge_heads(d_q))
        d_key = self.k_proj.backward(self._merge_heads(d_k))
        d_value = self.v_proj.backward(self._merge_heads(d_v))
        return d_query, d_key, d_value

    # Single-input Module interface = self-attention without mask.
    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.attend(x, x, x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        d_q, d_k, d_v = self.backward_attend(grad_out)
        return d_q + d_k + d_v


def causal_mask(seq_len: int) -> np.ndarray:
    """Lower-triangular (1=visible) mask for autoregressive decoding."""
    return np.tril(np.ones((1, 1, seq_len, seq_len), dtype=np.float32))


def padding_mask(token_ids: np.ndarray, pad_id: int) -> np.ndarray:
    """Mask keys at padding positions: shape (batch, 1, 1, seq_len)."""
    visible = (token_ids != pad_id).astype(np.float32)
    return visible[:, None, None, :]
