"""Pooling layers over NCHW tensors."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend import current_backend
from ..module import NO_GRAD, Module, check_backward_cache, is_grad_enabled


class MaxPool2d(Module):
    """Max pooling with square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        if padding * 2 > kernel_size:
            # Guarantees every window sees at least one real element, so
            # the -inf padding below can never be a window's argmax.
            raise ValueError(
                f"padding ({padding}) must be at most half the kernel size "
                f"({kernel_size}) for MaxPool2d"
            )
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, _, _ = x.shape
        backend = current_backend()
        # Pad with -inf, not zero: a padded slot must never win the max
        # (a zero pad would beat real negative activations and, worse,
        # rewrite real zero activations — ubiquitous after ReLU — when
        # masked by value), and backward must never route gradient into
        # the padding ring where col2im drops it.
        fill = -np.inf if self.padding > 0 else 0.0
        cols, out_h, out_w = backend.unfold(
            x, self.kernel_size, self.stride, self.padding, fill_value=fill
        )
        k2 = self.kernel_size * self.kernel_size
        windows = cols.reshape(batch, channels, k2, out_h * out_w)
        if not is_grad_enabled():
            # max() reads the same winning element argmax would select;
            # no index tensor is materialized or retained.
            out = windows.max(axis=2)
            backend.release(cols)
            self._saved = NO_GRAD
            return np.ascontiguousarray(
                out.reshape(batch, channels, out_h, out_w)
            )
        argmax = windows.argmax(axis=2)
        out = np.take_along_axis(windows, argmax[:, :, None, :], axis=2)[:, :, 0, :]
        # Only argmax survives into backward; the columns go back to the
        # workspace pool immediately.
        backend.release(cols)
        self._saved = (x.shape, argmax, out_h, out_w)
        return np.ascontiguousarray(out.reshape(batch, channels, out_h, out_w))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        x_shape, argmax, out_h, out_w = self._saved
        batch, channels = x_shape[0], x_shape[1]
        backend = current_backend()
        k2 = self.kernel_size * self.kernel_size
        cols_shape = (batch, channels * k2, out_h * out_w)
        buf = backend.acquire_cols(cols_shape, grad_out.dtype)
        if buf is None:
            buf = np.zeros(cols_shape, dtype=grad_out.dtype)
        else:
            buf.fill(0.0)
        grad_cols = buf.reshape(batch, channels, k2, out_h * out_w)
        g_flat = grad_out.reshape(batch, channels, out_h * out_w)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], g_flat[:, :, None, :], axis=2)
        grad_x = backend.fold(
            buf, x_shape, self.kernel_size, self.stride, self.padding
        )
        backend.release(buf)
        return grad_x


class AvgPool2d(Module):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, _, _ = x.shape
        backend = current_backend()
        cols, out_h, out_w = backend.unfold(
            x, self.kernel_size, self.stride, self.padding
        )
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
        grad_x = backend.fold(
            grad_cols, self._saved, self.kernel_size, self.stride, self.padding
        )
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
        return np.broadcast_to(grad, self._saved).astype(grad_out.dtype).copy()
