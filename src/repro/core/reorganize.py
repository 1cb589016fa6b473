"""Tensor reorganization (paper §3.6).

The predictor must output one gradient *row* per output unit of a layer
(``in_ch*k*k`` values per conv filter, ``in_features`` per linear
neuron).  Feeding raw activations would require a predictor input of
``batch * out_ch * W * H`` values — infeasible for real layers.  The
paper's reorganization:

1. average the output activations across the batch dimension
   (every sample contributes to the weight update), then
2. treat each output channel as its own *sample* for the predictor,

turning the activation ``(batch, out_ch, W, H)`` into a predictor input
of shape ``(out_ch, 1, W, H)``, paired with predictor outputs of shape
``(out_ch, in_ch*k*k)`` that match the weight-gradient layout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.layers.core import Conv2d, Linear
from ..nn.module import Module, PredictableMixin


def reorganize_activations(layer: Module, output: np.ndarray) -> np.ndarray:
    """Reorganize a layer's output activations for the predictor.

    Conv2d: ``(batch, out_ch, H, W) -> (out_ch, 1, H, W)`` via batch
    averaging.  Linear on 2-D activations: each output neuron becomes a
    ``(1, 1, 1)`` sample.  Linear on sequence activations
    ``(batch, seq, out)``: the sequence axis plays the role of the
    spatial width, giving ``(out, 1, 1, seq)`` — the direct analogue of
    the conv case (the adaptive pooling stage of the predictor absorbs
    the variable length).
    """
    if isinstance(layer, Conv2d):
        if output.ndim != 4:
            raise ValueError(f"conv activation must be 4-D, got {output.shape}")
        return _batch_mean(output)[:, None, :, :]  # (out_ch, 1, H, W)
    if isinstance(layer, Linear):
        if output.ndim == 3:
            return _batch_mean(output).T[:, None, None, :]  # (out, 1, 1, seq)
        flat = output.reshape(-1, output.shape[-1])
        return _batch_mean(flat)[:, None, None, None]  # (out_features, 1, 1, 1)
    raise TypeError(f"layer {type(layer).__name__} is not ADA-GP predictable")


def add_batch_sum(layer: Module, output: np.ndarray, out: np.ndarray) -> None:
    """Write the batch *sum* behind :func:`reorganize_activations`'
    plane into ``out``, ``(units, h*w)`` (any strides): the plane is
    this divided by the batch count, bit for bit when ``output`` is
    C-contiguous (NumPy then sums the batch axis in order, as the mean
    does).  Each sum reads ``output`` in its own order, so a sequence
    plane lands through ``out.T``.  The predictor sums a whole stack
    this way and divides it once."""
    if isinstance(layer, Conv2d):
        np.add.reduce(output, axis=0, out=out.reshape(output.shape[1:]))
    elif isinstance(layer, Linear):
        if output.ndim == 3:
            np.add.reduce(output, axis=0, out=out.T)
        else:
            flat = output.reshape(-1, output.shape[-1])
            np.add.reduce(flat, axis=0, out=out.reshape(-1))
    else:
        raise TypeError(f"layer {type(layer).__name__} is not ADA-GP predictable")


def _batch_mean(output: np.ndarray) -> np.ndarray:
    """``output.mean(axis=0)``, bit for bit: the same reduction and one
    in-place division, without ``ndarray.mean``'s per-call bookkeeping
    (about half its time on a transformer activation)."""
    total = np.add.reduce(output, axis=0)
    return np.true_divide(total, output.shape[0], out=total)


def gradient_rows(layer: PredictableMixin) -> tuple[int, int]:
    """(output_units, row_size) of the layer's flattened gradient."""
    return layer.output_units(), layer.gradient_size()


def flatten_gradients(
    layer: PredictableMixin,
    weight_grad: np.ndarray,
    bias_grad: Optional[np.ndarray],
) -> np.ndarray:
    """Pack weight (+bias) gradients into per-output-unit rows."""
    units, row = gradient_rows(layer)
    flat_w = weight_grad.reshape(units, -1)
    if layer.bias is not None:
        if bias_grad is None:
            raise ValueError("layer has a bias but no bias gradient given")
        return np.concatenate([flat_w, bias_grad.reshape(units, 1)], axis=1)
    if flat_w.shape[1] != row:
        raise ValueError(
            f"gradient row {flat_w.shape[1]} != expected {row} for "
            f"{type(layer).__name__}"
        )
    return flat_w


def unflatten_gradients(
    layer: PredictableMixin, rows: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Inverse of :func:`flatten_gradients`."""
    units, row = gradient_rows(layer)
    if rows.shape != (units, row):
        raise ValueError(
            f"rows shape {rows.shape} != expected ({units}, {row})"
        )
    if layer.bias is not None:
        weight_part = rows[:, :-1]
        bias_grad = np.ascontiguousarray(rows[:, -1])
    else:
        weight_part = rows
        bias_grad = None
    weight_grad = np.ascontiguousarray(weight_part).reshape(layer.weight.data.shape)
    return weight_grad, bias_grad
