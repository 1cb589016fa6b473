"""Layer-shape specifications consumed by the accelerator simulator.

The performance/energy side of the paper (Figs 16-21, cycle columns of
Tables 2-3) never executes real arithmetic: it costs each layer of the
*full-size* networks on a systolic-array model.  A :class:`LayerSpec`
captures exactly the dimensions that the cost model needs.

Convolutions are costed as the GEMM their im2col formulation produces:

* forward: ``(M=out_ch) x (K=in_ch*k*k) x (N=out_h*out_w*batch)``
* backward: two GEMMs — dX (``K x M x N``) and dW (``M x N -> K``) — which
  is why the paper's "BW takes twice as long as FW" assumption emerges
  naturally from the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator


class LayerKind(str, Enum):
    """Kinds of layers the cost model distinguishes."""

    CONV = "conv"
    DEPTHWISE_CONV = "depthwise_conv"
    LINEAR = "linear"
    MATMUL = "matmul"  # weight-less GEMM (attention scores/context)
    POOL = "pool"
    NORM = "norm"
    ACT = "act"


@dataclass(frozen=True)
class LayerSpec:
    """Shape record for one layer of a full-size network."""

    name: str
    kind: LayerKind
    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int = 1
    stride: int = 1
    padding: int = 0
    in_h: int = 1
    in_w: int = 1
    out_h: int = 1
    out_w: int = 1
    # Rectangular kernels (Inception 1x7 / 7x1): 0 means "= kernel_size".
    kernel_w: int = 0
    # Rectangular padding: -1 means "= padding".
    padding_w: int = -1

    # ------------------------------------------------------------------
    @property
    def kernel_h_eff(self) -> int:
        return self.kernel_size

    @property
    def kernel_w_eff(self) -> int:
        return self.kernel_w if self.kernel_w else self.kernel_size

    @property
    def padding_w_eff(self) -> int:
        return self.padding_w if self.padding_w >= 0 else self.padding

    @property
    def kernel_area(self) -> int:
        return self.kernel_h_eff * self.kernel_w_eff

    @property
    def weight_params(self) -> int:
        """Trainable weight count (excluding bias)."""
        if self.kind == LayerKind.CONV:
            return self.out_channels * self.in_channels * self.kernel_area
        if self.kind == LayerKind.DEPTHWISE_CONV:
            return self.out_channels * self.kernel_area
        if self.kind == LayerKind.LINEAR:
            return self.out_channels * self.in_channels
        if self.kind == LayerKind.NORM:
            return 2 * self.out_channels
        return 0

    @property
    def output_size(self) -> int:
        """Activation volume produced per sample."""
        return self.out_channels * self.out_h * self.out_w

    @property
    def input_size(self) -> int:
        return self.in_channels * self.in_h * self.in_w

    def gemm_dims(self, batch: int) -> tuple[int, int, int]:
        """(M, K, N) of the forward GEMM for ``batch`` samples."""
        if self.kind == LayerKind.CONV:
            k = self.in_channels * self.kernel_area
            return self.out_channels, k, self.out_h * self.out_w * batch
        if self.kind == LayerKind.DEPTHWISE_CONV:
            # Each channel is an independent tiny GEMM; modelled as one
            # GEMM with K = k*k and N spanning channels * positions.
            return 1, self.kernel_area, self.out_channels * self.out_h * self.out_w * batch
        if self.kind in (LayerKind.LINEAR, LayerKind.MATMUL):
            return self.out_channels, self.in_channels, self.out_h * batch
        raise ValueError(f"layer kind {self.kind} has no GEMM")

    def macs_forward(self, batch: int = 1) -> int:
        """Multiply-accumulate count of the forward pass."""
        if self.kind in (
            LayerKind.CONV,
            LayerKind.DEPTHWISE_CONV,
            LayerKind.LINEAR,
            LayerKind.MATMUL,
        ):
            m, k, n = self.gemm_dims(batch)
            return m * k * n
        return 0

    @property
    def is_compute(self) -> bool:
        return self.kind in (
            LayerKind.CONV,
            LayerKind.DEPTHWISE_CONV,
            LayerKind.LINEAR,
            LayerKind.MATMUL,
        )

    @property
    def is_predictable(self) -> bool:
        """Whether ADA-GP predicts this layer's weight gradients."""
        return self.kind in (
            LayerKind.CONV,
            LayerKind.DEPTHWISE_CONV,
            LayerKind.LINEAR,
        )


@dataclass
class ModelSpec:
    """An ordered list of layer specs plus identifying metadata."""

    name: str
    input_shape: tuple[int, int, int]  # (channels, height, width)
    layers: list[LayerSpec] = field(default_factory=list)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    # ------------------------------------------------------------------
    @property
    def compute_layers(self) -> list[LayerSpec]:
        return [layer for layer in self.layers if layer.is_compute]

    @property
    def total_weight_params(self) -> int:
        return sum(layer.weight_params for layer in self.layers)

    def total_macs(self, batch: int = 1) -> int:
        return sum(layer.macs_forward(batch) for layer in self.layers)


class SpecBuilder:
    """Incremental builder that tracks the running activation shape."""

    def __init__(self, name: str, input_shape: tuple[int, int, int]) -> None:
        self.spec = ModelSpec(name=name, input_shape=input_shape)
        self.channels, self.height, self.width = input_shape
        self._counter = 0

    # ------------------------------------------------------------------
    def _next_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    @staticmethod
    def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
        return (size + 2 * padding - kernel) // stride + 1

    # ------------------------------------------------------------------
    def conv(
        self,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        name: str | None = None,
        depthwise: bool = False,
        kernel_w: int = 0,
        padding_w: int | None = None,
    ) -> "SpecBuilder":
        kw = kernel_w if kernel_w else kernel_size
        pw = padding_w if padding_w is not None else padding
        out_h = self._out_size(self.height, kernel_size, stride, padding)
        out_w = self._out_size(self.width, kw, stride, pw)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"conv reduces spatial size below 1 "
                f"({self.height}x{self.width}, k={kernel_size}, s={stride})"
            )
        kind = LayerKind.DEPTHWISE_CONV if depthwise else LayerKind.CONV
        self.spec.layers.append(
            LayerSpec(
                name=name or self._next_name("conv"),
                kind=kind,
                in_channels=self.channels,
                out_channels=out_channels,
                kernel_size=kernel_size,
                stride=stride,
                padding=padding,
                in_h=self.height,
                in_w=self.width,
                out_h=out_h,
                out_w=out_w,
                kernel_w=kernel_w,
                padding_w=-1 if padding_w is None else padding_w,
            )
        )
        self.channels, self.height, self.width = out_channels, out_h, out_w
        return self

    def pool(
        self, kernel_size: int, stride: int | None = None, padding: int = 0
    ) -> "SpecBuilder":
        stride = stride if stride is not None else kernel_size
        out_h = self._out_size(self.height, kernel_size, stride, padding)
        out_w = self._out_size(self.width, kernel_size, stride, padding)
        self.spec.layers.append(
            LayerSpec(
                name=self._next_name("pool"),
                kind=LayerKind.POOL,
                in_channels=self.channels,
                out_channels=self.channels,
                kernel_size=kernel_size,
                stride=stride,
                padding=padding,
                in_h=self.height,
                in_w=self.width,
                out_h=out_h,
                out_w=out_w,
            )
        )
        self.height, self.width = out_h, out_w
        return self

    def global_pool(self) -> "SpecBuilder":
        self.spec.layers.append(
            LayerSpec(
                name=self._next_name("gap"),
                kind=LayerKind.POOL,
                in_channels=self.channels,
                out_channels=self.channels,
                kernel_size=self.height,
                stride=self.height,
                in_h=self.height,
                in_w=self.width,
                out_h=1,
                out_w=1,
            )
        )
        self.height = self.width = 1
        return self

    def linear(self, out_features: int, name: str | None = None) -> "SpecBuilder":
        in_features = self.channels * self.height * self.width
        self.spec.layers.append(
            LayerSpec(
                name=name or self._next_name("fc"),
                kind=LayerKind.LINEAR,
                in_channels=in_features,
                out_channels=out_features,
                in_h=1,
                in_w=1,
                out_h=1,
                out_w=1,
            )
        )
        self.channels, self.height, self.width = out_features, 1, 1
        return self

    def matmul(
        self, m: int, k: int, positions: int, name: str | None = None
    ) -> "SpecBuilder":
        """A weight-less GEMM (attention); does not change tracked shape."""
        self.spec.layers.append(
            LayerSpec(
                name=name or self._next_name("matmul"),
                kind=LayerKind.MATMUL,
                in_channels=k,
                out_channels=m,
                out_h=positions,
                out_w=1,
            )
        )
        return self

    def set_shape(self, channels: int, height: int, width: int) -> "SpecBuilder":
        """Override the tracked shape (used after concat-style merges)."""
        self.channels, self.height, self.width = channels, height, width
        return self

    def build(self) -> ModelSpec:
        return self.spec
