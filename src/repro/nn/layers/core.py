"""Core compute layers: Linear, Conv2d, Flatten, Identity, Sequential."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import init
from ..backend import current_backend
from ..module import (
    NO_GRAD,
    Module,
    Parameter,
    PredictableMixin,
    check_backward_cache,
    is_grad_enabled,
)


class Linear(Module, PredictableMixin):
    """Fully connected layer ``y = x @ W.T + b``.

    ADA-GP treats each output neuron as one predictor sample and predicts
    its row of the weight gradient (``in_features`` values plus bias).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = init.layer_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), in_features, rng),
            name="weight",
        )
        self.bias = (
            Parameter(init.zeros((out_features,)), name="bias") if bias else None
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got {x.shape}"
            )
        self._saved = x if is_grad_enabled() else NO_GRAD
        return current_backend().linear_forward(
            x, self.weight.data, self.bias.data if self.bias is not None else None
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        grad_x, grad_w, grad_b = current_backend().linear_backward(
            self._saved,
            grad_out,
            self.weight.data,
            with_bias=self.bias is not None,
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_x

    # -- PredictableMixin ------------------------------------------------
    def gradient_size(self) -> int:
        return self.in_features + (1 if self.bias is not None else 0)

    def output_units(self) -> int:
        return self.out_features

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module, PredictableMixin):
    """2-D convolution over NCHW tensors via im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = init.layer_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            ),
            name="weight",
        )
        self.bias = (
            Parameter(init.zeros((out_channels,)), name="bias") if bias else None
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected NCHW input with {self.in_channels} channels, "
                f"got shape {x.shape}"
            )
        out, ctx = current_backend().conv2d_forward(
            x,
            self.weight.data,
            self.bias.data if self.bias is not None else None,
            self.stride,
            self.padding,
        )
        if is_grad_enabled():
            self._saved = ctx
        else:
            # Forward-only stream: the im2col workspace goes straight
            # back to the backend pool so the next same-shaped conv
            # reuses it instead of allocating.
            ctx.release()
            self._saved = NO_GRAD
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        ctx = self._saved
        check_backward_cache(ctx, self)
        # Backward runs on the backend that produced the forward context,
        # so phase-level backend switches can never mix representations.
        grad_x, grad_w, grad_b = ctx.backend.conv2d_backward(
            grad_out, self.weight.data, ctx, with_bias=self.bias is not None
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_x

    # -- PredictableMixin ------------------------------------------------
    def gradient_size(self) -> int:
        per_filter = self.in_channels * self.kernel_size * self.kernel_size
        return per_filter + (1 if self.bias is not None else 0)

    def output_units(self) -> int:
        return self.out_channels

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class Flatten(Module):
    """Flatten all dims after the batch dim."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = x.shape if is_grad_enabled() else NO_GRAD
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        check_backward_cache(self._saved, self)
        return grad_out.reshape(self._saved)


class Identity(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Sequential(Module):
    """A chain of modules executed in order; backward runs in reverse."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers: list[Module] = list(modules)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __iter__(self):
        return iter(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not is_grad_enabled():
            return self._forward_no_grad(x)
        for layer in self.layers:
            x = layer(x)
        return x

    def _forward_no_grad(self, x: np.ndarray) -> np.ndarray:
        """Forward-only pass through the active backend's fold pipeline.

        The backend's ``fold_pipeline()`` (``None`` on the reference
        backend — exact layer-by-layer semantics) plans the layer list
        into modules interleaved with folded ops: conv+BN(+ReLU) as one
        rescaled convolution, eval-BN+ReLU as an in-place affine,
        linear+activation in place (see :mod:`repro.nn.passes`).
        Eligibility — running-stats-only BN, no forward hooks on folded
        layers — is re-checked on every forward because modes and hooks
        change between batches; folded layers are left with the
        ``_saved = NO_GRAD`` a plain no-grad forward produces.
        """
        pipeline = current_backend().fold_pipeline()
        plan = pipeline.plan(self.layers) if pipeline is not None else None
        if plan is None:
            for layer in self.layers:
                x = layer(x)
            return x
        # Deferred import: repro.nn.passes imports the layer classes
        # defined in this module.
        from ..passes.base import FoldedOp

        for item in plan:
            if type(item) is FoldedOp:
                x = item.run(x)
                item.mark_no_grad()
            else:
                x = item(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"
