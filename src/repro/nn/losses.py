"""Loss functions.

Every loss is a callable returning ``(loss_value, grad_wrt_input)`` so
the engine can feed the gradient straight into ``model.backward``.  Each
also exposes ``value(prediction, target)`` computing only the scalar —
the entry point for forward-only consumers (Phase-GP monitoring,
``engine.evaluate``) that would otherwise pay for a full-size gradient
tensor just to throw it away; :func:`loss_value` dispatches to it with a
fallback for ad-hoc callables that only implement the pair form.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F


class CrossEntropyLoss:
    """Softmax cross entropy over logits with integer class targets.

    Supports 2-D logits ``(batch, classes)`` and 3-D logits
    ``(batch, seq, classes)`` with an optional ``ignore_index`` for padded
    positions (Transformer training).
    """

    def __init__(self, ignore_index: Optional[int] = None) -> None:
        self.ignore_index = ignore_index

    def _picked_log_probs(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> tuple:
        """Shared forward math for :meth:`value` and :meth:`__call__`.

        Returns ``(log_probs, picked, safe_targets, valid, count)``.
        When every position is ignored (``count == 0``) the three array
        slots are ``None`` — unusable by construction, so callers must
        take their empty-batch path.
        """
        num_classes = logits.shape[-1]
        flat_logits = logits.reshape(-1, num_classes)
        flat_targets = np.asarray(targets).reshape(-1)
        if flat_targets.shape[0] != flat_logits.shape[0]:
            raise ValueError(
                f"targets shape {targets.shape} incompatible with logits "
                f"shape {logits.shape}"
            )
        if self.ignore_index is not None:
            valid = flat_targets != self.ignore_index
        else:
            valid = np.ones(flat_targets.shape[0], dtype=bool)
        count = int(valid.sum())
        if count == 0:
            return None, None, None, valid, count
        log_probs = F.log_softmax(flat_logits, axis=-1)
        safe_targets = np.where(valid, flat_targets, 0)
        picked = log_probs[np.arange(flat_targets.shape[0]), safe_targets]
        return log_probs, picked, safe_targets, valid, count

    def value(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Scalar loss only — no gradient tensor is ever allocated."""
        _, picked, _, valid, count = self._picked_log_probs(logits, targets)
        if count == 0:
            return 0.0
        return -float(picked[valid].mean())

    def __call__(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        orig_shape = logits.shape
        log_probs, picked, safe_targets, valid, count = self._picked_log_probs(
            logits, targets
        )
        if count == 0:
            return 0.0, np.zeros(orig_shape, dtype=np.float32)
        loss = -float(picked[valid].mean())
        probs = np.exp(log_probs)
        grad = probs
        grad[np.arange(safe_targets.shape[0]), safe_targets] -= 1.0
        grad[~valid] = 0.0
        grad /= count
        return loss, grad.reshape(orig_shape).astype(np.float32)


def loss_value(loss_fn, outputs: np.ndarray, targets: np.ndarray) -> float:
    """Scalar loss from any loss callable, cheapest path available.

    Uses the loss's ``value`` method when it has one (no gradient tensor
    is allocated); ad-hoc ``(loss, grad)`` callables — custom lambdas in
    tests and experiments — fall back to computing and discarding the
    gradient, which keeps this a drop-in for every ``LossFn``.
    """
    value = getattr(loss_fn, "value", None)
    if callable(value):
        return float(value(outputs, targets))
    loss, _ = loss_fn(outputs, targets)
    return float(loss)


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy in percent for (batch, classes) logits."""
    predictions = logits.argmax(axis=-1)
    return float((predictions == np.asarray(targets)).mean() * 100.0)
