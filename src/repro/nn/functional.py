"""Stateless array operations used by :mod:`repro.nn` layers.

Everything operates on ``float32`` NumPy arrays in NCHW layout.  The
convolution primitives use an im2col formulation so the heavy lifting is
a single GEMM, which also mirrors how the accelerator model in
:mod:`repro.accel` costs a convolution.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np


def pad2d(x: np.ndarray, padding: int, fill_value: float = 0.0) -> np.ndarray:
    """Pad the two trailing spatial dims of an NCHW tensor.

    ``fill_value`` defaults to zero (convolution semantics); max-pooling
    pads with ``-inf`` so padded positions can never win the max.
    """
    if padding == 0:
        return x
    batch, channels, height, width = x.shape
    # np.pad spends more on its generic bookkeeping than on the copy.
    padded = np.full(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        fill_value,
        dtype=x.dtype,
    )
    padded[:, :, padding:-padding, padding:-padding] = x
    return padded


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    fill_value: float = 0.0,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, int, int]:
    """Unfold an NCHW tensor into convolution columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(batch, channels * kernel * kernel, out_h * out_w)``.  Padded
    positions hold ``fill_value``.  ``out``, if given, receives the
    columns in place (a backend workspace buffer of exactly that shape)
    and is returned as ``cols``.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    xp = pad2d(x, padding, fill_value)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), (2, 3))
    # windows: (batch, channels, H', W', kernel, kernel) -> strided sampling.
    windows = windows[:, :, ::stride, ::stride, :, :]
    src = windows.transpose(0, 1, 4, 5, 2, 3)
    cols_shape = (batch, channels * kernel * kernel, out_h * out_w)
    if out is None:
        return np.ascontiguousarray(src).reshape(cols_shape), out_h, out_w
    if out.shape != cols_shape or out.dtype != x.dtype:
        raise ValueError(
            f"im2col out buffer has shape {out.shape}/{out.dtype}, "
            f"need {cols_shape}/{x.dtype}"
        )
    np.copyto(out.reshape(batch, channels, kernel, kernel, out_h, out_w), src)
    return out, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold convolution columns back into an NCHW tensor (adjoint of im2col)."""
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    reshaped = cols.reshape(batch, channels, kernel, kernel, out_h, out_w)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += reshaped[:, :, ky, kx]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def adaptive_pool_splits(in_size: int, out_size: int) -> list[tuple[int, int]]:
    """Start/end indices of adaptive pooling windows (PyTorch-compatible)."""
    if out_size <= 0:
        raise ValueError("adaptive pool output size must be positive")
    splits = []
    for i in range(out_size):
        start = (i * in_size) // out_size
        end = -(-((i + 1) * in_size) // out_size)  # ceil division
        splits.append((start, end))
    return splits


@functools.lru_cache(maxsize=256)
def adaptive_pool_operator(in_size: int, out_size: int) -> np.ndarray:
    """The ``(out_size, in_size)`` averaging operator of one pooled axis.

    Row ``i`` holds ``1 / len(window_i)`` over adaptive window ``i``, so
    ``P @ v`` pools a vector and ``P.T @ g`` is the exact backward.  The
    2-D pool is separable — ``P_h . x . P_w.T`` — which keeps the cached
    state at O(in_size * out_size) per axis at any input size.  Cached
    operators are shared between callers and therefore read-only.
    """
    operator = np.zeros((out_size, in_size), dtype=np.float32)
    for i, (start, end) in enumerate(adaptive_pool_splits(in_size, out_size)):
        operator[i, start:end] = 1.0 / (end - start)
    operator.setflags(write=False)
    return operator


def _apply_separable(
    x: np.ndarray, row_op: np.ndarray, col_op: np.ndarray
) -> np.ndarray:
    """``row_op . x . col_op.T`` over the two trailing axes of NCHW ``x``:
    the column contraction as one flat GEMM, the row contraction as a
    stacked one.

    Reference substrate beneath dispatch: ``Backend.adaptive_avg_pool2d``
    defaults to these functions, so routing the matmuls back through
    ``current_backend()`` would recurse.
    """
    batch, channels, height, width = x.shape
    cols = np.matmul(  # repro: noqa[backend-dispatch]
        x.reshape(-1, width), col_op.T
    ).reshape(batch, channels, height, -1)
    return np.matmul(row_op, cols)  # repro: noqa[backend-dispatch]


def adaptive_avg_pool2d(x: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Average-pool an NCHW tensor to an exact output spatial size."""
    return _apply_separable(
        x,
        adaptive_pool_operator(x.shape[2], out_hw[0]),
        adaptive_pool_operator(x.shape[3], out_hw[1]),
    )


def adaptive_avg_pool2d_backward(
    grad_out: np.ndarray, input_shape: tuple[int, int, int, int]
) -> np.ndarray:
    """Backward of :func:`adaptive_avg_pool2d`: the transposed operators
    scatter each output cell's gradient uniformly over its window."""
    return _apply_separable(
        grad_out,
        adaptive_pool_operator(input_shape[2], grad_out.shape[2]).T,
        adaptive_pool_operator(input_shape[3], grad_out.shape[3]).T,
    )
