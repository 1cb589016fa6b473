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
from typing import Callable, Iterator, Optional


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


# A path emits layers on the builder from a fork's input shape; ``None``
# is the empty path (the identity).
Path = Optional[Callable[["SpecBuilder"], object]]


class SpecBuilder:
    """Incremental builder that derives every layer's input shape.

    Forks are written the way the live zoo writes them
    (``nn.ConcatBranches`` / ``nn.Residual``): :meth:`concat`,
    :meth:`residual`, :meth:`side` and :meth:`route` run their paths
    from the running shape and raise ``ValueError`` naming the block when
    the shapes they merge disagree, so a built spec is consistent by
    construction.
    """

    def __init__(self, name: str, input_shape: tuple[int, int, int]) -> None:
        self.spec = ModelSpec(name=name, input_shape=input_shape)
        self.channels, self.height, self.width = input_shape
        self._counter = 0

    @property
    def shape(self) -> tuple[int, int, int]:
        """The running activation shape ``(channels, height, width)``."""
        return self.channels, self.height, self.width

    # ------------------------------------------------------------------
    def _next_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    @staticmethod
    def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
        return (size + 2 * padding - kernel) // stride + 1

    def _push(self, layer: LayerSpec) -> "SpecBuilder":
        """Append ``layer`` and make its output the running shape."""
        out = (layer.out_channels, layer.out_h, layer.out_w)
        if min(out) <= 0:
            raise ValueError(
                f"{layer.name}: output shape {out} from input {self.shape} is not positive"
            )
        self.spec.layers.append(layer)
        self.channels, self.height, self.width = out
        return self

    def _run(self, path: Path, start: tuple[int, int, int]) -> tuple[int, int, int]:
        """Run ``path`` from ``start``; the shape it ends on."""
        self.channels, self.height, self.width = start
        if path is not None:
            path(self)
        return self.shape

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
        name = name or self._next_name("conv")
        if depthwise and out_channels != self.channels:
            raise ValueError(
                f"{name}: depthwise conv maps {self.channels} channels to {out_channels}"
            )
        kw = kernel_w if kernel_w else kernel_size
        pw = padding_w if padding_w is not None else padding
        return self._push(
            LayerSpec(
                name=name,
                kind=LayerKind.DEPTHWISE_CONV if depthwise else LayerKind.CONV,
                in_channels=self.channels,
                out_channels=out_channels,
                kernel_size=kernel_size,
                stride=stride,
                padding=padding,
                in_h=self.height,
                in_w=self.width,
                out_h=self._out_size(self.height, kernel_size, stride, padding),
                out_w=self._out_size(self.width, kw, stride, pw),
                kernel_w=kernel_w,
                padding_w=-1 if padding_w is None else padding_w,
            )
        )

    def pool(
        self, kernel_size: int, stride: int | None = None, padding: int = 0
    ) -> "SpecBuilder":
        stride = stride if stride is not None else kernel_size
        return self._push(
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
                out_h=self._out_size(self.height, kernel_size, stride, padding),
                out_w=self._out_size(self.width, kernel_size, stride, padding),
            )
        )

    def global_pool(self) -> "SpecBuilder":
        return self._push(
            LayerSpec(
                name=self._next_name("gap"),
                kind=LayerKind.POOL,
                in_channels=self.channels,
                out_channels=self.channels,
                kernel_size=self.height,
                stride=self.height,
                in_h=self.height,
                in_w=self.width,
            )
        )

    def linear(self, out_features: int, name: str | None = None) -> "SpecBuilder":
        return self._push(
            LayerSpec(
                name=name or self._next_name("fc"),
                kind=LayerKind.LINEAR,
                in_channels=self.channels * self.height * self.width,
                out_channels=out_features,
            )
        )

    # ------------------------------------------------------------------
    def concat(self, tag: str, *paths: Path) -> "SpecBuilder":
        """Run every path from the current shape; concatenate on channels."""
        start = self.shape
        ends = [self._run(path, start) for path in paths]
        spatial = {end[1:] for end in ends}
        if len(spatial) != 1:
            raise ValueError(
                f"{tag}: concat needs one spatial size, branches end on {ends}"
            )
        self.channels = sum(end[0] for end in ends)
        self.height, self.width = spatial.pop()
        return self

    def residual(self, tag: str, main: Path, shortcut: Path = None) -> "SpecBuilder":
        """``main(x) + shortcut(x)``; the shortcut (default: identity) must
        end on the main path's shape."""
        start = self.shape
        out = self._run(main, start)
        short = self._run(shortcut, start)
        if short != out:
            raise ValueError(
                f"{tag}: residual shortcut ends on {short}, main path on {out}"
            )
        return self

    def side(self, path: Path) -> "SpecBuilder":
        """A terminal head: run ``path``, then restore the running shape."""
        start = self.shape
        self._run(path, start)
        self.channels, self.height, self.width = start
        return self

    def route(self, tag: str, saved: tuple[int, int, int]) -> "SpecBuilder":
        """Upsample the running activation 2x and concatenate it with the
        ``saved`` earlier one (a :attr:`shape`) on channels."""
        channels, height, width = saved
        if (2 * self.height, 2 * self.width) != (height, width):
            raise ValueError(
                f"{tag}: 2x upsample of {self.height}x{self.width} does not "
                f"meet the routed {height}x{width} activation"
            )
        self.channels, self.height, self.width = self.channels + channels, height, width
        return self

    def build(self) -> ModelSpec:
        return self.spec
