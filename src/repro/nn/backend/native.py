"""NativeBackend: compiled C kernels for the convolution-shaped ops.

The hot ops — conv2d forward/backward, the max-pooling and batch-norm
op pairs and the pooling unfold/fold — dispatch to the shared library
built from ``_native/kernels.c`` (see :mod:`.native_build`).  No im2col
column matrix is ever materialized: the input is copied once into
zero-padded planes, the forward touches ``x`` once instead of copying
it K*K times, and the backward context pins the *input* instead of a
pooled workspace.

The kernels are width-agnostic.  A stride-1 convolution over a
zero-padded plane stored at row pitch ``Wp`` is a 1-D correlation of the
flattened plane,

    out_flat[q] = sum_{c,kh,kw} w[o,c,kh,kw] * xp_flat[c][q + kh*Wp + kw]

so ``kernels.c`` lays the padded planes out channel-major,
``(C, N*Hp*Wp)``, and tiles *consecutive q* — across row and sample
boundaries — computing the ``K-1`` garbage columns of every row and
dropping them at the store.  Vector occupancy is ``H*W / (Hp*Wp)`` at
every plane width (79 % at 16x16, 64 % at 8x8, 44 % at 4x4, 25 % at 2x2
for K=3), where a per-row tiling is scalar below one vector of columns:
the first eight conv layers of VGG13-mini on 16x16 inputs, whose planes
are 16, 16, 8, 8, 4, 4, 2 and 2 wide, run the same register-blocked
loops.  Forward, input gradient (the same microkernel over the padded
output gradient with flipped weights) and weight gradient
(the output gradient at the same pitch with zeros in the garbage slots:
``gw[o,c,k]`` is one long dot product of two flat rows) share the
formulation.  The slack a tile reads past the last plane lives *inside*
the scratch copy, zeroed; the caller's arrays are never over-read.

Max pooling builds no columns either: one pass over the input finds
each window's maximum and its ``uint8`` position (the index format
every backend shares, :meth:`~.base.Backend.max_pool2d`), and backward
scatter-adds each pixel's terms in the reference's fold order, so
``out``, index and ``grad_x`` are bitwise equal to the reference
(DESIGN.md §7 has the measured before/after).

Batch normalisation works over ``(N, C, S)``, S the trailing axes, so
2-D and 4-D input share the pair.  The forward
makes three passes — the mean, the variance of the centred values in
double, and one pass writing ``out`` (``relu`` clamped in) and, when a
backward will need it, ``xc = x - mean`` — and the backward two: the
per-channel sums of ``g`` and ``g * xc`` in double, then ``grad_x``.
The mean is NumPy's own float32 reduction, reproduced bit for bit, so
``xc`` equals the fused backend's; the context is the fused one,
``NormCtx(self, xc, inv_std)``.  The C path takes contiguous float32
operands with batch or running statistics; anything else falls back,
counted.  Per op on VGG13-mini's ten batch norms (batch 32, one thread)
it is 1.8x fused forward, 2.5x no-grad forward and 2.2x backward
(DESIGN.md §7 has the table); a NumPy rewrite cannot get there, because
what costs is NumPy's broadcast passes over small NCHW planes.

Everything else (linear GEMMs, attention contractions, moments, the 1x1
pointwise fast path, the workspace pool for average pooling) is
inherited from :class:`~.fused.FusedBackend`, as is the fold pipeline,
so a folded no-grad graph runs identically on both.

What stays off the C kernels, and why.  The conv kernels compute
stride 1 with ``padding <= kernel - 1`` and nothing else: that is the
flattened formulation's domain.  Every other conv, strided ones first
of all, takes the inherited im2col + BLAS path, which is also the
faster one there (a bounds-checked strided C loop measured 2-5x behind
BLAS at ResNet-style shapes); the C pooling unfold/fold are half of
that path.  Inside the domain two speed rules send more shapes
to BLAS: 1x1 convs, whose input already is the column matrix, and a
1x1 output plane (VGG13-mini's last two layers): 11 % occupancy, eight
of the nine taps of a padded 3x3 read padding, and the kernel measured
0.76-0.90x fused forward and 0.65-0.76x forward+backward at 32->32
channels, batch 32, one thread, while the column buffer there is 9*C
floats per sample.  Those convs take the inherited path.  Narrow planes
do not: on the VGG13 benchmark workload the im2col path reaches the
same speed there but pins a column buffer per layer (+51 % peak RSS),
whereas the direct kernel pins only the input.  There is no C GEMM: a
hand-rolled one measured 0.042x the inherited BLAS path on the
model-step shape (8.51 ms against 0.36 ms) — conv wins natively because
skipping im2col changes the memory traffic, not because the C compiler
out-multiplies BLAS.

The C ``unfold`` (the column half of every strided conv and of average
pooling) pays per (sample, channel, tap, output row), so output rows of
one or two cells go to NumPy's strided copy (``_unfold_on_numpy``); the
C ``fold`` keeps only the 1x1 output plane there.  C against the
inherited im2col on every strided unfold the zoo minis run (16x16
inputs, batch 32, one thread; median speed-up of three runs of 1 000
interleaved calls, of five runs of 3 000 for the rows marked *):

    input (C,H,W)  K s p  output  minis                C speed-up
    ( 8,16,16)     3 2 1  8x8     Inception-V3/V4      1.38x
    (32,16,16)     3 2 1  8x8     Inception-V3/V4      1.32x
    (12,16,16)     3 2 1  8x8     ResNet50/101/152     1.30x
    (16, 8, 8)     3 2 1  4x4     ResNet50/101/152     1.15x
    (16,16,16)     1 2 0  8x8     ResNet50/101/152     1.24x
    (24, 8, 8)     1 2 0  4x4     ResNet50/101/152     1.01x *
    (24, 4, 4)     3 2 1  2x2     ResNet50/101/152     0.94x *  NumPy
    (32, 4, 4)     1 2 0  2x2     ResNet50/101/152     0.95x *  NumPy
    (16,16,16)     3 2 1  8x8     MobileNet-V2         1.35x
    (24, 8, 8)     3 2 1  4x4     MobileNet-V2         1.18x
    (12,16,16)     2 2 0  8x8     DenseNet121/169      1.15x
    (15,16,16)     2 2 0  8x8     DenseNet201          1.07x
    (16,16,16)     2 2 0  8x8     DenseNet161          1.09x
    (12, 8, 8)     2 2 0  4x4     DenseNet121          1.00x *
    (15, 8, 8)     2 2 0  4x4     DenseNet169          0.98x *
    (16, 8, 8)     2 2 0  4x4     DenseNet201          0.97x *
    (20, 8, 8)     2 2 0  4x4     DenseNet161          0.96x *

Both 2x2 outputs read below 1x in all ten of their runs; the 4x4 pooling
rows straddle parity run to run (0.90-1.11x) and stay in C.

Dispatch is eligibility-checked per call: float32 C-contiguous operands
take the C kernels, anything else (float64 gradchecks, sliced views)
falls back to the inherited pure-Python implementation and counts as
``fallback`` in ``dispatch_counts`` — the backend is
always *correct*, the kernels are an acceleration of the common case.
(A float32 gradient that is merely a strided view is copied instead:
conv and max-pool backward both read ``grad_out`` once.)  A conv
kernel that cannot allocate its scratch raises :class:`MemoryError`
naming the op; nothing degrades silently.

Construction raises :class:`NativeUnavailableError` when the extension
cannot be built (no compiler, a compiler without the GNU vector
extensions, ``REPRO_NATIVE=0``); callers that want to degrade
gracefully check :func:`native_available` first, as the bench gate and
test matrix do.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from .. import functional as F
from . import native_build
from .base import ConvCtx, NormCtx, register_backend
from .fused import FusedBackend


class NativeUnavailableError(RuntimeError):
    """The native backend was requested but its extension is unusable."""


def native_available() -> bool:
    """True when the compiled kernels can be built/loaded on this host."""
    return native_build.available()


def _f32c(a: np.ndarray) -> bool:
    return a.dtype == np.float32 and a.flags.c_contiguous


def _ptr(a: Optional[np.ndarray]) -> Optional[int]:
    """``a.ctypes.data``: the bare address, which ctypes converts through
    the ``c_void_p`` argtype.  The kernels' operands are writable,
    C-contiguous and non-empty (all 262 pointers of a VGG13-mini BP
    step), and for those a ``c_char`` over the buffer reads the address
    in ~0.9 us against ~3 us for ``.ctypes``.  The buffer protocol
    refuses any other array, which then takes ``.ctypes``."""
    if a is None:
        return None
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def _in_domain(kernel: int, stride: int, padding: int) -> bool:
    """The convs the C kernels compute (module docstring)."""
    return stride == 1 and padding < kernel


class NativeBackend(FusedBackend):
    """Direct compiled conv/pooling kernels over float32."""

    name = "native"

    def __init__(self) -> None:
        super().__init__()
        try:
            self._lib = native_build.load()
        except (native_build.NativeBuildError, OSError) as exc:
            raise NativeUnavailableError(
                f"native backend unavailable: {exc}"
            ) from exc
        # Per-op native-vs-fallback decision counts.
        self.dispatch_counts: dict[str, dict[str, int]] = {}

    def _dispatch(self, op: str, native: bool) -> bool:
        paths = self.dispatch_counts.setdefault(op, {"native": 0, "fallback": 0})
        paths["native" if native else "fallback"] += 1
        return native

    def metrics(self):
        """``repro_backend_dispatch{op,path}`` rows (``repro.obs`` pulls them)."""
        return [
            ("repro_backend_dispatch", "counter", count, {"op": op, "path": path})
            for op, paths in self.dispatch_counts.items()
            for path, count in paths.items()
        ]

    def reset_stats(self) -> None:
        super().reset_stats()
        self.dispatch_counts = {}

    def _kernel(self, name: str, *args) -> None:
        """Call C entry point ``name`` (a conv or batch-norm one); it
        returns 0 when its scratch allocation failed."""
        if not getattr(self._lib, name)(*args):
            raise MemoryError(f"native {name}: scratch allocation failed")

    # -- convolution -----------------------------------------------------
    def _on_blas(self, kernel, stride, padding, out_h, out_w) -> bool:
        """In-domain shapes the inherited path runs faster (module
        docstring): 1x1 convs (one GEMM upstream: the input *is* the
        column matrix) and convs with a 1x1 output plane."""
        return self._is_pointwise(kernel, stride, padding) or out_h * out_w == 1

    @staticmethod
    def _unfold_on_numpy(out_w: int) -> bool:
        """Output rows the inherited strided copy fills faster (module
        docstring): the C unfold pays per (sample, channel, tap, output
        row), and a row of one or two cells does not amortise that."""
        return out_w <= 2

    def conv2d_forward(self, x, weight, bias, stride, padding):
        batch, in_c, height, width = x.shape
        out_c, _, kernel, _ = weight.shape
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        if (
            not _in_domain(kernel, stride, padding)
            or self._on_blas(kernel, stride, padding, out_h, out_w)
            or not _f32c(x)
            or not _f32c(weight)
            or (bias is not None and not _f32c(bias))
        ):
            # Fall back for those shapes and anything else the kernels
            # don't cover.
            self._dispatch("conv2d_forward", False)
            return super().conv2d_forward(x, weight, bias, stride, padding)
        self._dispatch("conv2d_forward", True)
        out = np.empty((batch, out_c, out_h, out_w), dtype=np.float32)
        self._kernel(
            "conv2d_forward", _ptr(x), _ptr(weight), _ptr(bias), _ptr(out),
            batch, in_c, height, width, out_c, kernel, padding, out_h, out_w,
        )
        # The context pins the raw input (not a pooled column buffer):
        # backward re-reads x directly, release() is a no-op, and
        # forward-only streams have nothing to return to the pool.
        ctx = ConvCtx(self, x, x.shape, kernel, stride, padding, pooled=False)
        return out, ctx

    def conv2d_backward(self, grad_out, weight, ctx, with_bias=False):
        if ctx.cols.ndim != 4:
            # Context from the inherited path (pointwise or fallback
            # forward): cols is a column matrix, not the input.
            self._dispatch("conv2d_backward", False)
            return super().conv2d_backward(grad_out, weight, ctx, with_bias)
        self._dispatch("conv2d_backward", True)
        x = ctx.cols
        g = np.ascontiguousarray(grad_out, dtype=np.float32)
        batch, in_c, height, width = x.shape
        out_c, _, kernel, _ = weight.shape
        out_h, out_w = g.shape[2], g.shape[3]
        grad_x = np.empty_like(x)
        grad_w = np.empty_like(weight)
        grad_b = np.empty(out_c, dtype=np.float32) if with_bias else None
        dims = (batch, in_c, height, width, out_c, kernel, ctx.padding, out_h, out_w)
        self._kernel(
            "conv2d_backward_input", _ptr(g), _ptr(weight), _ptr(grad_x), *dims
        )
        self._kernel(
            "conv2d_backward_weight", _ptr(x), _ptr(g), _ptr(grad_w), _ptr(grad_b), *dims
        )
        return grad_x, grad_w, grad_b

    # -- unfold / fold (pooling and strided-conv columns) -----------------
    # Narrow output rows stay on NumPy's strided copy (_unfold_on_numpy);
    # fold keeps only the 1x1 output plane there: its C loop measured
    # 2-4x slower on it and faster on every wider plane.
    def unfold(self, x, kernel, stride, padding, fill_value=0.0):
        batch, channels, height, width = x.shape
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        if not _f32c(x) or self._unfold_on_numpy(out_w):
            self._dispatch("unfold", False)
            return super().unfold(x, kernel, stride, padding, fill_value)
        self._dispatch("unfold", True)
        cols = self.pool.acquire(
            (batch, channels * kernel * kernel, out_h * out_w), x.dtype
        )
        self._lib.unfold(
            _ptr(x), _ptr(cols),
            batch, channels, height, width, kernel,
            stride, padding, out_h, out_w,
            ctypes.c_float(fill_value),
        )
        return cols, out_h, out_w

    def fold(self, cols, input_shape, kernel, stride, padding):
        batch, channels, height, width = input_shape
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        if not _f32c(cols) or out_h * out_w == 1:
            self._dispatch("fold", False)
            return super().fold(cols, input_shape, kernel, stride, padding)
        self._dispatch("fold", True)
        grad_x = np.empty(input_shape, dtype=np.float32)
        self._lib.fold(
            _ptr(cols), _ptr(grad_x),
            batch, channels, height, width, kernel,
            stride, padding, out_h, out_w,
        )
        return grad_x

    # -- max pooling -----------------------------------------------------
    # No columns, no pooled workspace and no 1x1-plane exception: the
    # kernels pay per output cell, not per tap plane.  The index may come
    # from any backend's forward; it is the shared format.
    def max_pool2d(self, x, kernel, stride, padding, with_index):
        if not self._dispatch("max_pool2d", _f32c(x)):
            return super().max_pool2d(x, kernel, stride, padding, with_index)
        batch, channels, height, width = x.shape
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        out = np.empty((batch, channels, out_h, out_w), dtype=np.float32)
        index = np.empty(out.shape, dtype=np.uint8) if with_index else None
        self._lib.max_pool2d(
            _ptr(x), _ptr(out), _ptr(index),
            batch, channels, height, width, kernel,
            stride, padding, out_h, out_w,
        )
        return out, index

    def max_pool2d_backward(
        self, grad_out, index, input_shape, kernel, stride, padding
    ):
        native = (
            grad_out.dtype == np.float32
            and index.dtype == np.uint8
            and index.flags.c_contiguous
        )
        if not self._dispatch("max_pool2d_backward", native):
            return super().max_pool2d_backward(
                grad_out, index, input_shape, kernel, stride, padding
            )
        # A strided view (VGG13-mini's last pool gets one, the col2im
        # slice of the 1x1-plane conv after it) is copied, as in
        # conv2d_backward: the kernel reads it once.
        g = np.ascontiguousarray(grad_out)
        batch, channels, height, width = input_shape
        grad_x = np.empty(input_shape, dtype=np.float32)
        self._lib.max_pool2d_backward(
            _ptr(g), _ptr(index), _ptr(grad_x),
            batch, channels, height, width, kernel,
            stride, padding, index.shape[2], index.shape[3],
        )
        return grad_x

    # -- batch normalisation ----------------------------------------------
    # The context is the fused one, ``NormCtx(self, x - mean, inv_std)``,
    # so a context from the inherited forward (a strided input) is the
    # C backward's input as well.
    def batchnorm_forward(
        self, x, gamma, beta, eps, stats=None, relu=False, need_ctx=True
    ):
        operands = (x, gamma, beta) + (() if stats is None else tuple(stats))
        if not self._dispatch(
            "batchnorm_forward", x.size > 0 and all(map(_f32c, operands))
        ):
            return super().batchnorm_forward(
                x, gamma, beta, eps, stats, relu, need_ctx
            )
        batch, channels = x.shape[:2]
        if stats is None:
            mean = np.empty(channels, dtype=np.float32)
            var = np.empty(channels, dtype=np.float32)
        else:
            mean, var = stats  # read, never written
        inv_std = np.empty(channels, dtype=np.float32)
        out = np.empty_like(x)
        xc = np.empty_like(x) if need_ctx else None
        self._kernel(
            "batchnorm_forward",
            _ptr(x), _ptr(gamma), _ptr(beta), _ptr(mean), _ptr(var),
            _ptr(inv_std), _ptr(out), _ptr(xc),
            batch, channels, x.size // (batch * channels), stats is None, relu,
            ctypes.c_float(eps),
        )
        ctx = NormCtx(self, xc, inv_std) if need_ctx else None
        return out, mean, var, ctx

    def batchnorm_backward(self, grad_out, gamma, ctx, training):
        xc, inv_std = ctx.saved, ctx.inv_std
        native = (
            grad_out.dtype == np.float32
            and xc.size > 0
            and all(map(_f32c, (xc, gamma, inv_std)))
        )
        if not self._dispatch("batchnorm_backward", native):
            return super().batchnorm_backward(grad_out, gamma, ctx, training)
        g = np.ascontiguousarray(grad_out)  # a strided view is read once
        batch, channels = xc.shape[:2]
        grad_x = np.empty_like(xc)
        grad_gamma = np.empty(channels, dtype=np.float32)
        grad_beta = np.empty(channels, dtype=np.float32)
        self._kernel(
            "batchnorm_backward",
            _ptr(g), _ptr(xc), _ptr(gamma), _ptr(inv_std),
            _ptr(grad_x), _ptr(grad_gamma), _ptr(grad_beta),
            batch, channels, xc.size // (batch * channels), training,
        )
        return grad_x, grad_gamma, grad_beta


register_backend("native", NativeBackend)
