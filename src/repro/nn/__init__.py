"""`repro.nn` — a from-scratch layer-wise NumPy DNN framework.

This is the training substrate the ADA-GP reproduction runs on (the
paper used PyTorch; see DESIGN.md §2 for the substitution rationale).
Layers implement explicit ``forward``/``backward``; optimizers support
per-parameter stepping so ADA-GP can update a layer the moment its
forward pass finishes.
"""

from . import backend, functional, graph, init, losses, optim
from .backend import (
    Backend,
    FusedBackend,
    NativeBackend,
    NativeUnavailableError,
    NumpyBackend,
    backend_scope,
    current_backend,
    get_backend,
    list_backends,
    native_available,
    register_backend,
    use_backend,
)
from .layers import *  # noqa: F401,F403 -- curated in layers/__init__.py
from .layers import __all__ as _layers_all
from . import passes  # noqa: E402 -- after layers: passes match layer types
from .losses import CrossEntropyLoss, accuracy, loss_value
from .module import (
    NO_GRAD,
    Module,
    Parameter,
    PredictableMixin,
    is_grad_enabled,
    no_grad,
)
from .optim import SGD, Adam, MultiStepLR, ReduceLROnPlateau

__all__ = [
    "backend",
    "functional",
    "graph",
    "init",
    "losses",
    "optim",
    "passes",
    "Backend",
    "FusedBackend",
    "NativeBackend",
    "NativeUnavailableError",
    "NumpyBackend",
    "backend_scope",
    "current_backend",
    "get_backend",
    "list_backends",
    "native_available",
    "register_backend",
    "use_backend",
    "CrossEntropyLoss",
    "accuracy",
    "loss_value",
    "Module",
    "NO_GRAD",
    "Parameter",
    "PredictableMixin",
    "is_grad_enabled",
    "no_grad",
    "SGD",
    "Adam",
    "MultiStepLR",
    "ReduceLROnPlateau",
] + list(_layers_all)
