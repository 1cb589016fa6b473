"""Pluggable compute backends for the layer framework's hot tensor ops.

See :mod:`.base` for the dispatch rules and DESIGN.md §7 for the
architecture.  Importing this package registers the three built-in
backends: ``"numpy"`` (the verbatim reference), ``"fused"``
(reshaped-BLAS matmul + im2col workspace pool + 1x1 fast path) and
``"native"`` (compiled C kernels; registered always, buildable only
where a C compiler is present — :func:`native_available` reports
which).
"""

from .base import (
    Backend,
    BackendSpec,
    ConvCtx,
    NormCtx,
    backend_scope,
    current_backend,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
    use_backend,
)
from .fused import FusedBackend, WorkspacePool
from .native import NativeBackend, NativeUnavailableError, native_available
from .numpy_backend import NumpyBackend

__all__ = [
    "Backend",
    "BackendSpec",
    "ConvCtx",
    "FusedBackend",
    "NativeBackend",
    "NativeUnavailableError",
    "NormCtx",
    "NumpyBackend",
    "WorkspacePool",
    "backend_scope",
    "current_backend",
    "get_backend",
    "list_backends",
    "native_available",
    "register_backend",
    "resolve_backend",
    "use_backend",
]
