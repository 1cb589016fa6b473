"""Composite building blocks: residual add, branch concat, and helpers.

These compose ``forward``/``backward`` explicitly so deep CNN topologies
(ResNet skip connections, DenseNet/Inception concatenation) work inside
the layer-wise framework.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..module import NO_GRAD, Module, check_backward_cache, is_grad_enabled
from .core import Identity, Sequential


class Residual(Module):
    """``y = main(x) + shortcut(x)`` with explicit backward through both."""

    def __init__(self, main: Module, shortcut: Optional[Module] = None) -> None:
        super().__init__()
        self.main = main
        self.shortcut = shortcut if shortcut is not None else Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        main_out = self.main(x)
        short_out = self.shortcut(x)
        if main_out.shape != short_out.shape:
            raise ValueError(
                f"residual branch shapes differ: main {main_out.shape} vs "
                f"shortcut {short_out.shape}"
            )
        return main_out + short_out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.main.backward(grad_out) + self.shortcut.backward(grad_out)


class ConcatBranches(Module):
    """Run branches on the same input and concatenate outputs on channels.

    Used by Inception blocks; backward splits the gradient back per branch
    and sums the input gradients.
    """

    def __init__(self, branches: Sequence[Module]) -> None:
        super().__init__()
        if not branches:
            raise ValueError("ConcatBranches needs at least one branch")
        self.branches: list[Module] = list(branches)

    def forward(self, x: np.ndarray) -> np.ndarray:
        outputs = [branch(x) for branch in self.branches]
        self._saved = (
            [out.shape[1] for out in outputs] if is_grad_enabled() else NO_GRAD
        )
        return np.concatenate(outputs, axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        grad_in = None
        offset = 0
        for branch, size in zip(self.branches, self._saved):
            grad_slice = grad_out[:, offset : offset + size]
            offset += size
            g = branch.backward(np.ascontiguousarray(grad_slice))
            grad_in = g if grad_in is None else grad_in + g
        return grad_in


class DenseConcat(Module):
    """``y = concat(x, main(x))`` on channels — one DenseNet layer hop."""

    def __init__(self, main: Module) -> None:
        super().__init__()
        self.main = main

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = x.shape[1] if is_grad_enabled() else NO_GRAD
        new_features = self.main(x)
        return np.concatenate([x, new_features], axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        grad_passthrough = np.ascontiguousarray(grad_out[:, : self._saved])
        grad_new = np.ascontiguousarray(grad_out[:, self._saved :])
        return grad_passthrough + self.main.backward(grad_new)


def conv_bn_relu(
    in_channels: int,
    out_channels: int,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """The ubiquitous Conv -> BatchNorm -> ReLU triple."""
    from .activations import ReLU
    from .core import Conv2d
    from .norm import BatchNorm2d

    return Sequential(
        Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            bias=False,
            rng=rng,
        ),
        BatchNorm2d(out_channels),
        ReLU(),
    )
