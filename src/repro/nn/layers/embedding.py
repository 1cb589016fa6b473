"""Token embedding and sinusoidal positional encoding for the Transformer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import init
from ..module import (
    NO_GRAD,
    Module,
    Parameter,
    check_backward_cache,
    is_grad_enabled,
)


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = init.layer_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            (rng.standard_normal((num_embeddings, embedding_dim)) * 0.02).astype(
                np.float32
            ),
            name="weight",
        )

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        token_ids = np.asarray(token_ids)
        if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= self.num_embeddings:
            raise ValueError(
                f"token ids out of range [0, {self.num_embeddings}): "
                f"[{token_ids.min()}, {token_ids.max()}]"
            )
        self._saved = token_ids if is_grad_enabled() else NO_GRAD
        return self.weight.data[token_ids]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        grad_w = np.zeros_like(self.weight.data)
        flat_ids = self._saved.reshape(-1)
        flat_grad = grad_out.reshape(-1, self.embedding_dim)
        np.add.at(grad_w, flat_ids, flat_grad)
        self.weight.accumulate_grad(grad_w)
        # Token ids are not differentiable; return a zero placeholder.
        return np.zeros(self._saved.shape, dtype=np.float32)


class PositionalEncoding(Module):
    """Add fixed sinusoidal position encodings (Vaswani et al. 2017)."""

    def __init__(self, d_model: int, max_len: int) -> None:
        super().__init__()
        self.d_model = d_model
        position = np.arange(max_len, dtype=np.float32)[:, None]
        div_term = np.exp(
            np.arange(0, d_model, 2, dtype=np.float32) * (-np.log(10000.0) / d_model)
        )
        table = np.zeros((max_len, d_model), dtype=np.float32)
        table[:, 0::2] = np.sin(position * div_term)
        table[:, 1::2] = np.cos(position * div_term)
        self.table = table

    def forward(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[1]
        if seq_len > self.table.shape[0]:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_len {self.table.shape[0]}"
            )
        return x + self.table[None, :seq_len]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
