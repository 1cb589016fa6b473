"""The module table: which modules a model has, in what order, and which
ADA-GP predicts — one predictor shared across those layers (arXiv
2305.13236 §3.6), stages cut over them (§3.7).  Rows follow
:func:`~repro.nn.module.walk`, the one tree traversal.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .layers.norm import _BatchNorm
from .module import Module, PredictableMixin, no_grad, walk


class Row(NamedTuple):
    name: str  # qualified dotted name; "root" for the traced model
    module: Module
    parent: Optional[Row]  # None for the root
    predictable: bool  # an ADA-GP-predictable layer
    output_shape: Optional[tuple]  # set only by a probe forward


class ModuleTable(NamedTuple):
    rows: tuple[Row, ...]

    @property
    def predictable(self) -> list[Module]:
        """The predictable layers in row order, which every model in
        :mod:`repro.models` keeps aligned with its forward's order."""
        return [row.module for row in self.rows if row.predictable]

    @property
    def served(self) -> list[Module]:
        """The predictable layers no BatchNorm follows, in row order: the
        ones the predictor serves.  A layer is BN-fed when its next
        sibling under the same parent is a BatchNorm; that layer's
        weight gradient is within-batch covariance, which no predictor
        reading batch means can know, so its parameters coast on the
        optimizer's momentum instead.  Structural: no probe forward."""
        served: list[Module] = []
        after: dict[int, Module] = {}  # id(parent row) -> the next sibling seen
        for row in reversed(self.rows):
            key = id(row.parent)
            if row.predictable and not isinstance(after.get(key), _BatchNorm):
                served.append(row.module)
            after[key] = row.module
        served.reverse()
        return served


def trace(model: Module, example: Optional[np.ndarray] = None) -> ModuleTable:
    """The module table of ``model``, one row per module in walk order.

    With ``example``, rows carry their module's output shape from one
    eval-mode ``no_grad()`` probe forward (running statistics untouched,
    no pooled workspace kept); hooks and training flags are restored.  A
    module that runs twice keeps its last shape, one that never runs
    ``None``.
    """
    walked = list(walk(model))
    shapes: dict[int, tuple] = {}
    if example is not None:

        def hook(module: Module, output: np.ndarray) -> None:
            shapes[id(module)] = output.shape

        saved = [(m, m.forward_hook, m.training) for _name, m, _parent in walked]
        for module, _hook, _training in saved:
            module.forward_hook = hook
            module.training = False
        try:
            with no_grad():
                model(example)
        finally:
            for module, previous, training in saved:
                module.forward_hook = previous
                module.training = training
    rows: list[Row] = []
    for name, module, parent in walked:
        parent_row = rows[parent] if parent >= 0 else None
        predictable = isinstance(module, PredictableMixin)
        rows.append(Row(name, module, parent_row, predictable, shapes.get(id(module))))
    return ModuleTable(tuple(rows))
