"""Backend protocol, registry and selection context for tensor ops.

Every heavy tensor primitive of the layer framework — im2col+GEMM
convolution, linear GEMMs, pooling unfold/fold, the attention einsums,
batch normalisation and the layer-norm moment reductions — dispatches
through the active :class:`Backend`.  Layers never call ``np.einsum``
/ ``np.matmul`` on the hot path directly; they ask
:func:`current_backend` (or the context that produced their forward
cache) so an alternative substrate is a one-argument change.

Selection works at two levels, innermost wins:

1. global default — :func:`use_backend` (also usable as a context
   manager that restores the previous default on exit);
2. dynamic scope — :func:`backend_scope`, which the
   :class:`~repro.core.engine.engine.TrainingEngine` enters around every
   batch and evaluation with its configured backend.

Registering a third backend is :func:`register_backend` plus a subclass
overriding whichever ops the new substrate accelerates (see DESIGN.md
§7).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .. import functional as F

BackendSpec = Union[str, "Backend"]


@dataclass
class ConvCtx:
    """Forward context a backend hands to its own ``conv2d_backward``.

    ``backend`` pins backward to the backend that produced the context,
    so switching the active backend between a layer's forward and
    backward (phase-level overrides) stays correct.  ``pooled`` marks
    ``cols`` as a workspace-pool buffer that backward (or
    :meth:`release`, via ``Module.clear_caches``) returns for reuse.
    """

    backend: "Backend"
    cols: np.ndarray
    x_shape: tuple[int, ...]
    kernel: int
    stride: int
    padding: int
    pooled: bool = False
    released: bool = False

    def release(self) -> None:
        """Return the cols workspace to the backend pool (idempotent)."""
        if self.pooled and not self.released:
            self.released = True
            self.backend.release(self.cols)


@dataclass
class NormCtx:
    """Forward context a backend hands to its own ``batchnorm_backward``.

    ``backend`` pins backward to the backend that produced the context,
    exactly as :class:`ConvCtx` does — which matters more here, because
    ``saved`` is a backend-private representation: the normalised
    ``x_hat`` on the reference backend, the merely centred ``x - mean``
    on the fused one.  Backward only reads it: a second backward, and
    the pipeline executor's cache snapshot/restore, see the same
    tensors.
    """

    backend: "Backend"
    saved: np.ndarray
    inv_std: np.ndarray


def channel_axes(ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(reduction axes, broadcast shape) of a per-channel statistic of
    an ``ndim``-D tensor whose channels are axis 1."""
    return (0, *range(2, ndim)), (1, -1) + (1,) * (ndim - 2)


class Backend:
    """Abstract op set; concrete backends override everything below.

    The reference implementation is :class:`~.numpy_backend.NumpyBackend`
    (the pre-refactor layer code, moved verbatim);
    :class:`~.fused.FusedBackend` overrides the GEMM-shaped ops with
    reshaped BLAS ``matmul``, cached contraction paths and an im2col
    workspace pool.
    """

    name: str = "abstract"

    # -- workspace management (real pooling only in FusedBackend) -------
    def acquire_cols(
        self, shape: tuple[int, ...], dtype: np.dtype
    ) -> Optional[np.ndarray]:
        """A reusable cols-shaped scratch buffer, or ``None`` to make the
        caller allocate (the reference behaviour)."""
        return None

    def release(self, array: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`acquire_cols`; no-op by
        default."""

    def reset_stats(self) -> None:
        """Zero this backend's counters; no-op by default.  Only a
        reader starting a measurement window calls it, never the library."""

    # -- no-grad graph rewriting -----------------------------------------
    def fold_pipeline(self):
        """The :class:`~repro.nn.passes.PassPipeline` this backend wants
        applied to no-grad ``Sequential`` forwards, or ``None`` to keep
        the exact layer-by-layer semantics (the reference behaviour)."""
        return None

    # -- unfold / fold (conv and pooling columns) ------------------------
    def unfold(
        self,
        x: np.ndarray,
        kernel: int,
        stride: int,
        padding: int,
        fill_value: float = 0.0,
    ) -> tuple[np.ndarray, int, int]:
        raise NotImplementedError

    def fold(
        self,
        cols: np.ndarray,
        input_shape: tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        raise NotImplementedError

    # -- convolution -----------------------------------------------------
    def conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
    ) -> tuple[np.ndarray, ConvCtx]:
        raise NotImplementedError

    def conv2d_backward(
        self,
        grad_out: np.ndarray,
        weight: np.ndarray,
        ctx: ConvCtx,
        with_bias: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        raise NotImplementedError

    # -- linear ----------------------------------------------------------
    def linear_forward(
        self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
    ) -> np.ndarray:
        raise NotImplementedError

    def linear_backward(
        self,
        x: np.ndarray,
        grad_out: np.ndarray,
        weight: np.ndarray,
        with_bias: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        raise NotImplementedError

    # -- attention contractions ------------------------------------------
    def attn_scores(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """``bhqd,bhkd->bhqk`` (scores forward, d_attn backward)."""
        raise NotImplementedError

    def attn_context(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``bhqk,bhkd->bhqd`` (context forward, d_q backward)."""
        raise NotImplementedError

    def attn_context_t(self, p: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``bhqk,bhqd->bhkd`` (d_v and d_k backward)."""
        raise NotImplementedError

    # -- batch normalisation ----------------------------------------------
    def batchnorm_forward(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        eps: float,
        stats: Optional[tuple[np.ndarray, np.ndarray]] = None,
        relu: bool = False,
        need_ctx: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[NormCtx]]:
        """``gamma * (x - mean) / sqrt(var + eps) + beta`` per channel
        (axis 1; every other axis is reduced, so 2-D and 4-D batch norm
        share the op).  ``stats=None`` normalises with the batch mean
        and biased batch variance, ``stats=(mean, var)`` with the given
        ones; either way ``(out, mean, var, ctx)`` returns the pair
        used.  ``relu`` clamps ``out`` at zero and is not part of
        ``ctx``, which differentiates the normalisation alone.
        ``need_ctx=False`` (forward-only streams) returns ``ctx=None``
        and lets the backend reuse its scratch as the output."""
        raise NotImplementedError

    def batchnorm_backward(
        self,
        grad_out: np.ndarray,
        gamma: np.ndarray,
        ctx: NormCtx,
        training: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(grad_x, grad_gamma, grad_beta)``; ``training`` says the
        forward used batch statistics, which then carry gradient.  Must
        not modify ``ctx``."""
        raise NotImplementedError

    # -- normalization moments -------------------------------------------
    def moments(
        self,
        x: np.ndarray,
        axes: Union[int, tuple[int, ...]],
        keepdims: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(mean, biased variance) reduced over ``axes``."""
        raise NotImplementedError

    # -- adaptive pooling -------------------------------------------------
    def adaptive_avg_pool2d(
        self, x: np.ndarray, out_hw: tuple[int, int]
    ) -> np.ndarray:
        return F.adaptive_avg_pool2d(x, out_hw)

    def adaptive_avg_pool2d_backward(
        self, grad_out: np.ndarray, input_shape: tuple[int, int, int, int]
    ) -> np.ndarray:
        return F.adaptive_avg_pool2d_backward(grad_out, input_shape)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], Backend]] = {}
_INSTANCES: dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend under ``name`` (lazily instantiated singleton)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def list_backends() -> list[str]:
    return sorted(_FACTORIES)


def get_backend(name: str) -> Backend:
    """The singleton backend registered under ``name``."""
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; registered: {list_backends()}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def resolve_backend(spec: Optional[BackendSpec]) -> Optional[Backend]:
    """Resolve a name / instance / ``None`` to a backend (or ``None``)."""
    if spec is None or isinstance(spec, Backend):
        return spec
    return get_backend(spec)


# ----------------------------------------------------------------------
# Selection: a mutable global default plus a dynamic override stack.
# ----------------------------------------------------------------------
_default_backend: Optional[Backend] = None
_override_stack: list[Backend] = []


def current_backend() -> Backend:
    """The backend ops dispatch to right now (innermost scope wins)."""
    if _override_stack:
        return _override_stack[-1]
    global _default_backend
    if _default_backend is None:
        _default_backend = get_backend("numpy")
    return _default_backend


class _UseBackend:
    """Handle returned by :func:`use_backend`: the change is already
    global; entering it as a context manager restores the previous
    default on exit."""

    def __init__(self, previous: Optional[Backend], active: Backend) -> None:
        self._previous = previous
        self.backend = active

    def __enter__(self) -> Backend:
        return self.backend

    def __exit__(self, *exc_info) -> None:
        global _default_backend
        _default_backend = self._previous


def use_backend(spec: BackendSpec) -> _UseBackend:
    """Set the global default backend; ``with use_backend("fused"):``
    additionally restores the previous default when the block exits."""
    global _default_backend
    previous = _default_backend
    backend = resolve_backend(spec)
    _default_backend = backend
    return _UseBackend(previous, backend)


@contextmanager
def backend_scope(spec: Optional[BackendSpec]) -> Iterator[Optional[Backend]]:
    """Dynamically scoped backend override; ``None`` is a no-op scope
    (inherit whatever is active), which lets engines wrap every batch
    unconditionally."""
    backend = resolve_backend(spec)
    if backend is None:
        yield None
        return
    _override_stack.append(backend)
    try:
        yield backend
    finally:
        _override_stack.pop()
