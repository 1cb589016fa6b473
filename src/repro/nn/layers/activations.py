"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from .. import functional as F
from ..module import NO_GRAD, Module, check_backward_cache, is_grad_enabled


# The piecewise-linear activations are written as arithmetic
# (``maximum`` / ``minimum`` / multiply-by-mask), never as a per-element
# select: on a half-positive tensor a select costs ~20x a ``maximum``.
# Both gradient modes run the same expression, so outputs are bitwise
# equal across them and a NaN activation reaches the output in both.


class ReLU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        # No mask materialized at all in forward-only streams.
        self._saved = (x > 0.0) if is_grad_enabled() else NO_GRAD
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        return grad_out * self._saved


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.1) -> None:
        super().__init__()
        self.slope = slope

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = (x > 0.0) if is_grad_enabled() else NO_GRAD
        # x and slope * x cross at zero; which one lies above the other
        # for x > 0 depends on the side of 1 the slope is on.
        pick = np.maximum if self.slope <= 1.0 else np.minimum
        out = x * self.slope
        return pick(x, out, out=out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        # The per-element factor is exactly 1 or slope (1 + slope * 0,
        # 0 + slope * 1); built and applied in one buffer.
        grad = ~self._saved * grad_out.dtype.type(self.slope)
        grad += self._saved
        grad *= grad_out
        return grad


class ReLU6(Module):
    """min(max(x, 0), 6) — the MobileNet activation."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = ((x > 0.0) & (x < 6.0)) if is_grad_enabled() else NO_GRAD
        return np.clip(x, 0.0, 6.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        return grad_out * self._saved


class Sigmoid(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = F.sigmoid(x)
        self._saved = out if is_grad_enabled() else NO_GRAD
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        return grad_out * self._saved * (1.0 - self._saved)


class Tanh(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._saved = out if is_grad_enabled() else NO_GRAD
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        return grad_out * (1.0 - self._saved**2)
