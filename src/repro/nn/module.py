"""Base classes of the layer-wise NumPy neural-network framework.

The framework intentionally avoids taped autograd: every layer implements
an explicit ``forward`` and an explicit ``backward`` that consumes the
gradient of the loss with respect to the layer output and returns the
gradient with respect to the layer input, accumulating parameter
gradients on the way.  This mirrors what a DNN accelerator executes and
gives ADA-GP direct access to the two things it needs:

* per-layer output activations (via forward hooks), and
* per-layer weight-gradient injection without running backward.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

import numpy as np


# ----------------------------------------------------------------------
# Gradient mode.
#
# Phase-GP batches and evaluation are *forward-only*: nothing will ever
# call ``backward``, so retaining backward caches (im2col columns,
# activation masks, normalization contexts — the largest allocations of
# a step) is pure waste.  ``no_grad()`` switches every layer's forward
# into a cache-free mode whose per-layer outputs are bitwise identical
# to the grad-enabled forward; it is orthogonal to ``train()``/``eval()``
# — batch-norm batch statistics and dropout keep their *training*
# semantics under ``no_grad``, only the backward bookkeeping is skipped.
# (One composite-level exception: a fused-backend ``Sequential`` in eval
# mode may fold conv+BN into a single GEMM under no_grad, equivalent at
# atol<=1e-5 rather than bitwise — see DESIGN.md §8.)
# ----------------------------------------------------------------------
# The mode is context-local (a ``ContextVar``, default enabled): a
# thread started inside a ``no_grad()`` scope begins grad-enabled, and a
# scope entered on one thread never changes what another thread's
# layers retain.
_grad_enabled: ContextVar[bool] = ContextVar("repro_grad_enabled", default=True)


def is_grad_enabled() -> bool:
    """Whether layer forwards currently retain backward caches."""
    return _grad_enabled.get()


@contextmanager
def no_grad():
    """Context manager disabling backward-cache retention (reentrant).

    Inside the scope every layer forward skips its backward bookkeeping:
    conv layers release their im2col workspace immediately, activations
    save no masks, normalization layers save no context — per-layer
    outputs stay bitwise identical (composite fused-backend folding is
    the one atol-level exception, see the module note above).  Calling
    ``backward`` on a layer whose last forward ran under ``no_grad``
    raises a :class:`RuntimeError`.  Forward hooks still fire, so
    Phase-GP predicted updates work unchanged.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class _NoGradCache:
    """Sentinel stored in place of a backward cache by no-grad forwards.

    Distinct from ``None`` (never ran forward / caches cleared) so
    ``backward`` can tell the difference and raise a precise error.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "NO_GRAD"


#: The singleton a layer's forward stores in ``_saved`` under no_grad.
NO_GRAD = _NoGradCache()


def check_backward_cache(cache, layer) -> None:
    """Validate a layer's ``_saved`` slot at the top of ``backward``.

    Raises the classic "backward before forward" error on ``None`` and a
    no-grad-specific error on the :data:`NO_GRAD` sentinel.
    """
    if cache is None:
        raise RuntimeError(
            f"{type(layer).__name__}.backward called before forward"
        )
    if cache is NO_GRAD:
        raise RuntimeError(
            f"{type(layer).__name__}.backward called after a no-grad "
            "forward; rerun the forward outside no_grad() to rebuild "
            "backward caches"
        )


class Parameter:
    """A trainable tensor: raw data plus an accumulated gradient.

    Parameters are plain ``float32`` NumPy arrays.  Gradients accumulate
    across ``backward`` calls until :meth:`zero_grad` clears them, which
    matches the semantics of mainstream frameworks.
    """

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        # Monotonic mutation counter: optimizers bump it whenever they
        # update ``data`` so derived caches (the fold passes' conv+BN
        # weights) can detect staleness without comparing arrays.
        self.version = 0

    def bump_version(self) -> None:
        """Record that ``data`` was mutated (invalidates derived caches)."""
        self.version += 1

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the stored gradient, allocating on first use."""
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"shape {self.data.shape} for {self.name!r}"
            )
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


# Signature of a forward hook: hook(module, output) -> None.
ForwardHook = Callable[["Module", np.ndarray], None]


class Module:
    """Base class for all layers and composite blocks.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Calling a
    module (``module(x)``) runs forward and then fires the module's
    ``forward_hook`` if one is installed; the ADA-GP trainer uses this to
    observe activations and, in Phase GP, update weights immediately.

    A module holds three kinds of state (DESIGN.md §8): ``Parameter``
    attributes (optimizer and :meth:`state_dict`), the array attributes
    named in :attr:`statistics` (:meth:`state_dict` only), and
    ``_saved`` — the one slot for what ``forward`` keeps for
    ``backward``: ``None`` (no forward yet, or cleared), :data:`NO_GRAD`
    (last forward was forward-only) or the layer's own value.
    """

    #: Attributes that are persistent but not trained (batch-norm
    #: running statistics).  A class that names any also keeps a
    #: ``stats_version`` counter, bumped whenever one is replaced.
    statistics: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.training = True
        self.forward_hook: Optional[ForwardHook] = None
        self._saved = None

    # ------------------------------------------------------------------
    # Interface to implement.
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Invocation.
    # ------------------------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        if self.forward_hook is not None:
            self.forward_hook(self, out)
        return out

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def _direct_parameters(self) -> Iterator[Parameter]:
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                yield value

    def _direct_children(self) -> Iterator[tuple[str, "Module"]]:
        for key, value in self.__dict__.items():
            if isinstance(value, Module):
                yield key, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{key}.{i}", item

    def children(self) -> Iterator["Module"]:
        for _name, child in self._direct_children():
            yield child

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` for this module and descendants."""
        yield prefix or "root", self
        for name, child in self._direct_children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        """This module and its descendants, in :meth:`named_modules`
        order.  A fresh walk every call (``Sequential.append`` mutates
        ``layers`` in place), but an iterative one — no generator frame
        per tree level, no dotted names — because ``clear_caches`` and
        ``train`` run it on every batch."""
        stack = [self]
        while stack:
            module = stack.pop()
            yield module
            stack.extend(
                [child for _name, child in module._direct_children()][::-1]
            )

    def parameters(self) -> Iterator[Parameter]:
        seen: set[int] = set()
        for module in self.modules():
            for param in module._direct_parameters():
                if id(param) not in seen:
                    seen.add(id(param))
                    yield param

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        seen: set[int] = set()
        for mod_name, module in self.named_modules():
            for param in module._direct_parameters():
                if id(param) not in seen:
                    seen.add(id(param))
                    yield f"{mod_name}.{param.name}", param

    # ------------------------------------------------------------------
    # State management.
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def clear_caches(self) -> "Module":
        """Empty ``_saved`` on every module of this tree.

        What layers save (conv columns, pooling argmax, normalization
        contexts) is the largest allocation of a training step and
        would otherwise stay pinned until the *next* forward overwrites
        it; the engine calls this after each batch to cut peak memory
        between batches.  Backward requires a fresh forward afterwards.
        """
        for module in self.modules():
            module._clear_cache()
        return self

    def _clear_cache(self, empty=None) -> None:
        """Set ``_saved`` to ``empty``, first handing a saved value that
        has ``release()`` (a conv context's pooled workspace) back."""
        release = getattr(self._saved, "release", None)
        if release is not None:
            release()
        self._saved = empty

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def _state_slots(self) -> dict[str, tuple[object, str]]:
        """``name -> (owner, attribute)`` of every persistent array."""
        slots = {name: (p, "data") for name, p in self.named_parameters()}
        for mod_name, module in self.named_modules():
            for attr in module.statistics:
                slots[f"{mod_name}.{attr}"] = (module, attr)
        return slots

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and declared statistic, by name."""
        return {
            name: getattr(owner, attr).copy()
            for name, (owner, attr) in self._state_slots().items()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        slots = self._state_slots()
        missing = set(slots) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        unexpected = set(state) - set(slots)
        if unexpected:
            raise KeyError(f"state dict has unexpected keys: {sorted(unexpected)}")
        for name, (owner, attr) in slots.items():
            value = np.asarray(state[name], dtype=np.float32)
            shape = getattr(owner, attr).shape
            if value.shape != shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {value.shape} vs {shape}"
                )
            setattr(owner, attr, value.copy())
            # Derived caches (folded conv+BN weights, the predictor's
            # dense operator) key on these counters.
            if isinstance(owner, Parameter):
                owner.bump_version()
            else:
                owner.stats_version += 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PredictableMixin:
    """Marker for layers whose weight gradients ADA-GP can predict.

    Predictable layers expose ``weight`` (and optionally ``bias``)
    parameters and record, during forward, the output activation that the
    predictor consumes.
    """

    weight: Parameter
    bias: Optional[Parameter]

    def gradient_size(self) -> int:
        """Number of gradient values to predict per output unit."""
        raise NotImplementedError

    def output_units(self) -> int:
        """Number of output units (filters / neurons) of the layer."""
        raise NotImplementedError


def predictable_layers(model: Module) -> list[Module]:
    """Return every ADA-GP-predictable layer of ``model`` in forward order.

    Forward order here is definition order, which all models in
    :mod:`repro.models` keep aligned with execution order.
    """
    return [m for m in model.modules() if isinstance(m, PredictableMixin)]
