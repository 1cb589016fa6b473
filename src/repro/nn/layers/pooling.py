"""Pooling layers over NCHW tensors."""

from __future__ import annotations

import numpy as np

from ..backend import current_backend
from ..module import NO_GRAD, Module, check_backward_cache, is_grad_enabled


class MaxPool2d(Module):
    """Max pooling with square, non-overlapping windows (stride equal to
    the kernel, no padding).

    The arithmetic is the backend's ``max_pool2d`` op pair; what the
    layer keeps for backward is the op's ``uint8`` window index and the
    input shape.
    """

    #: Largest window a ``uint8`` index can address (16 * 16 = 256 positions).
    MAX_KERNEL = 16

    def __init__(self, kernel_size: int):
        super().__init__()
        if kernel_size > self.MAX_KERNEL:
            raise ValueError(
                f"kernel_size ({kernel_size}) must be at most "
                f"{self.MAX_KERNEL} for MaxPool2d: its uint8 window index "
                f"addresses {self.MAX_KERNEL}x{self.MAX_KERNEL} positions"
            )
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        grad = is_grad_enabled()
        out, index = current_backend().max_pool2d(
            x, self.kernel_size, self.kernel_size, 0, grad
        )
        self._saved = (index, x.shape) if grad else NO_GRAD
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        index, x_shape = self._saved
        return current_backend().max_pool2d_backward(
            grad_out, index, x_shape, self.kernel_size, self.kernel_size, 0
        )


class AvgPool2d(Module):
    """Average pooling with square, non-overlapping windows."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, _, _ = x.shape
        backend = current_backend()
        cols, out_h, out_w = backend.unfold(x, self.kernel_size, self.kernel_size, 0)
        k2 = self.kernel_size * self.kernel_size
        out = cols.reshape(batch, channels, k2, out_h * out_w).mean(axis=2)
        backend.release(cols)
        self._saved = x.shape if is_grad_enabled() else NO_GRAD
        return out.reshape(batch, channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        batch, channels = self._saved[0], self._saved[1]
        out_h, out_w = grad_out.shape[2], grad_out.shape[3]
        backend = current_backend()
        k2 = self.kernel_size * self.kernel_size
        g = grad_out.reshape(batch, channels, 1, out_h * out_w) / k2
        spread = np.broadcast_to(g, (batch, channels, k2, out_h * out_w))
        cols_shape = (batch, channels * k2, out_h * out_w)
        buf = backend.acquire_cols(cols_shape, grad_out.dtype)
        if buf is None:
            grad_cols = np.ascontiguousarray(spread).reshape(cols_shape)
        else:
            np.copyto(buf.reshape(spread.shape), spread)
            grad_cols = buf
        grad_x = backend.fold(grad_cols, self._saved, self.kernel_size, self.kernel_size, 0)
        backend.release(grad_cols)
        return grad_x


class AdaptiveAvgPool2d(Module):
    """Average-pool to a fixed output size regardless of input size."""

    def __init__(self, output_size: tuple[int, int] | int):
        super().__init__()
        if isinstance(output_size, int):
            output_size = (output_size, output_size)
        self.output_size = output_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = x.shape if is_grad_enabled() else NO_GRAD
        return current_backend().adaptive_avg_pool2d(x, self.output_size)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        return current_backend().adaptive_avg_pool2d_backward(
            grad_out, self._saved
        )


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing (batch, channels)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = x.shape if is_grad_enabled() else NO_GRAD
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        batch, channels, height, width = self._saved
        grad = grad_out.reshape(batch, channels, 1, 1) / (height * width)
        return np.broadcast_to(grad, self._saved).astype(grad_out.dtype)
