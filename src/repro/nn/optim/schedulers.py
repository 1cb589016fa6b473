"""Learning-rate schedulers.

The paper (§5.2) uses ``ReduceLROnPlateau`` (default parameters) for the
DNN model and ``MultiStepLR`` for the predictor; both are reproduced with
PyTorch-compatible semantics.
"""

from __future__ import annotations

from typing import Sequence

from .optimizers import Optimizer

#: ``MultiStepLR``'s decay per milestone.
MULTISTEP_GAMMA = 0.1
#: ``ReduceLROnPlateau``'s PyTorch defaults (mode ``"min"``): the decay
#: factor, the epochs without a relative improvement of
#: ``PLATEAU_THRESHOLD`` it waits, and that threshold.
PLATEAU_FACTOR = 0.1
PLATEAU_PATIENCE = 10
PLATEAU_THRESHOLD = 1e-4


class LRScheduler:
    """Base class; subclasses mutate ``optimizer.lr`` on ``step``."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_epoch = -1


class MultiStepLR(LRScheduler):
    """Decay the learning rate by :data:`MULTISTEP_GAMMA` at each
    milestone epoch."""

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int]) -> None:
        super().__init__(optimizer)
        if sorted(milestones) != list(milestones):
            raise ValueError(f"milestones must be increasing, got {milestones}")
        self.milestones = list(milestones)

    def step(self) -> None:
        self.last_epoch += 1
        decays = sum(1 for m in self.milestones if m <= self.last_epoch)
        self.optimizer.lr = self.base_lr * (MULTISTEP_GAMMA**decays)


class ReduceLROnPlateau(LRScheduler):
    """Reduce LR when a monitored loss stops improving, with the
    ``PLATEAU_*`` constants."""

    def __init__(self, optimizer: Optimizer) -> None:
        super().__init__(optimizer)
        self.best: float | None = None
        self.num_bad_epochs = 0

    def step(self, metric: float) -> None:
        self.last_epoch += 1
        if self.best is None or metric < self.best * (1.0 - PLATEAU_THRESHOLD):
            self.best = metric
            self.num_bad_epochs = 0
        else:
            self.num_bad_epochs += 1
        if self.num_bad_epochs > PLATEAU_PATIENCE:
            self.optimizer.lr *= PLATEAU_FACTOR
            self.num_bad_epochs = 0
