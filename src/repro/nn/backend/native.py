"""NativeBackend: compiled C kernels for the convolution-shaped ops.

The hot ops — conv2d forward/backward, the max-pooling op pair and the
pooling unfold/fold — dispatch to the shared library built from
``_native/kernels.c`` (see :mod:`.native_build`).  No im2col column
matrix is ever materialized: the input is copied once into zero-padded planes, the forward touches
``x`` once instead of copying it K*K times, and the backward context
pins the *input* instead of a pooled workspace.

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
loops.  Forward, input gradient (the same microkernel over the
dilated-padded output gradient with flipped weights) and weight gradient
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

Everything else (linear GEMMs, attention contractions, the batch-norm
op pair, moments, the 1x1 pointwise fast path, the workspace pool for
average pooling) is inherited from :class:`~.fused.FusedBackend`, as is
the fold pipeline, so a folded no-grad graph runs identically on both.

What stays off the C kernels, and why.  Narrow planes are *not* routed
to the inherited im2col path: measured on the VGG13 benchmark workload
that reaches the same speed but pins a column buffer per layer (+51 %
peak RSS), whereas the direct kernel pins only the input.  The one
exception is a 1x1 output plane (VGG13-mini's last two layers): 11 %
occupancy, eight of the nine taps of a padded 3x3 read padding, and the
kernel measured 0.76-0.90x fused forward and 0.65-0.76x forward+backward
at 32->32 channels, batch 32, one thread, while the column buffer there
is 9*C floats per sample.  Those convs, and the pooling unfold/fold
with a 1x1 output, take the inherited path.  There is no C GEMM: a
hand-rolled one measured 0.042x the inherited BLAS path on the
model-step shape (8.51 ms against 0.36 ms) — conv wins natively because
skipping im2col changes the memory traffic, not because the C compiler
out-multiplies BLAS.  Strided convolutions fall back to the im2col path
for the same reason: the flattened formulation is stride-1, and the
bounds-checked strided loop the C entry points degrade to runs 2-5x
behind BLAS at ResNet-style shapes.  ``REPRO_NATIVE_STRIDED=1``
dispatches them to the C kernels anyway — the test hook through which
the equivalence tests and the sanitizer job reach that loop, which is
also what allocation failure and non-GNU compilers fall back to.

Dispatch is eligibility-checked per call: float32 C-contiguous operands
take the C kernels, anything else (float64 gradchecks, sliced views)
falls back to the inherited pure-Python implementation and counts as
``fallback`` in ``dispatch_counts`` — the backend is
always *correct*, the kernels are an acceleration of the common case.

Construction raises :class:`NativeUnavailableError` when the extension
cannot be built (no compiler, ``REPRO_NATIVE=0``); callers that want to
degrade gracefully check :func:`native_available` first, as the bench
gate and test matrix do.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

import numpy as np

from .. import functional as F
from . import native_build
from .base import ConvCtx, register_backend
from .fused import FusedBackend


class NativeUnavailableError(RuntimeError):
    """The native backend was requested but its extension is unusable."""


def native_available() -> bool:
    """True when the compiled kernels can be built/loaded on this host."""
    return native_build.available()


def _f32c(a: np.ndarray) -> bool:
    return a.dtype == np.float32 and a.flags.c_contiguous


def _ptr(a: Optional[np.ndarray]):
    return None if a is None else ctypes.c_void_p(a.ctypes.data)


class NativeBackend(FusedBackend):
    """Direct compiled conv/pooling kernels over float32."""

    name = "native"

    def __init__(self, max_buffers_per_shape: int = 8) -> None:
        super().__init__(max_buffers_per_shape)
        try:
            self._lib = native_build.load()
        except (native_build.NativeBuildError, OSError) as exc:
            raise NativeUnavailableError(
                f"native backend unavailable: {exc}"
            ) from exc
        # Opt-in only — BLAS beats the generic strided conv loop (see
        # the module docstring).
        self._c_strided = os.environ.get("REPRO_NATIVE_STRIDED") == "1"
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

    # -- convolution -----------------------------------------------------
    def _on_blas(self, kernel, stride, padding, out_h, out_w) -> bool:
        """Shapes the inherited path runs faster (module docstring):
        1x1 stride-1 convs (one GEMM upstream: the input *is* the column
        matrix), strided convs, and convs with a 1x1 output plane."""
        return (
            self._is_pointwise(kernel, stride, padding)
            or (stride != 1 and not self._c_strided)
            or out_h * out_w == 1
        )

    def conv2d_forward(self, x, weight, bias, stride, padding):
        batch, in_c, height, width = x.shape
        out_c, _, kernel, _ = weight.shape
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        if (
            self._on_blas(kernel, stride, padding, out_h, out_w)
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
        self._lib.conv2d_forward(
            _ptr(x), _ptr(weight), _ptr(bias), _ptr(out),
            batch, in_c, height, width, out_c, kernel,
            stride, padding, out_h, out_w,
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
        dims = (
            batch, in_c, height, width, out_c, kernel,
            ctx.stride, ctx.padding, out_h, out_w,
        )
        self._lib.conv2d_backward_input(_ptr(g), _ptr(weight), _ptr(grad_x), *dims)
        self._lib.conv2d_backward_weight(_ptr(x), _ptr(g), _ptr(grad_w), _ptr(grad_b), *dims)
        return grad_x, grad_w, grad_b

    # -- unfold / fold (pooling columns) ---------------------------------
    # A 1x1 output plane stays on NumPy's strided copy here too: the C
    # loops pay per (sample, channel, tap) and measured 2-4x slower.
    def unfold(self, x, kernel, stride, padding, fill_value=0.0):
        batch, channels, height, width = x.shape
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        if not _f32c(x) or out_h * out_w == 1:
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
            _f32c(grad_out)
            and index.dtype == np.uint8
            and index.flags.c_contiguous
        )
        if not self._dispatch("max_pool2d_backward", native):
            return super().max_pool2d_backward(
                grad_out, index, input_shape, kernel, stride, padding
            )
        batch, channels, height, width = input_shape
        grad_x = np.empty(input_shape, dtype=np.float32)
        self._lib.max_pool2d_backward(
            _ptr(grad_out), _ptr(index), _ptr(grad_x),
            batch, channels, height, width, kernel,
            stride, padding, index.shape[2], index.shape[3],
        )
        return grad_x


register_backend("native", NativeBackend)
