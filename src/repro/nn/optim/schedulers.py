"""Learning-rate schedulers.

The paper (§5.2) uses ``ReduceLROnPlateau`` (default parameters) for the
DNN model and ``MultiStepLR`` for the predictor; both are reproduced with
PyTorch-compatible semantics.
"""

from __future__ import annotations

from typing import Sequence

from .optimizers import Optimizer


class LRScheduler:
    """Base class; subclasses mutate ``optimizer.lr`` on ``step``."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_epoch = -1


class MultiStepLR(LRScheduler):
    """Decay the learning rate by ``gamma`` at each milestone epoch."""

    def __init__(
        self,
        optimizer: Optimizer,
        milestones: Sequence[int],
        gamma: float = 0.1,
    ) -> None:
        super().__init__(optimizer)
        if sorted(milestones) != list(milestones):
            raise ValueError(f"milestones must be increasing, got {milestones}")
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.milestones = list(milestones)
        self.gamma = gamma

    def step(self) -> None:
        self.last_epoch += 1
        decays = sum(1 for m in self.milestones if m <= self.last_epoch)
        self.optimizer.lr = self.base_lr * (self.gamma**decays)


class ReduceLROnPlateau(LRScheduler):
    """Reduce LR when a monitored metric stops improving.

    Defaults match PyTorch: mode='min', factor=0.1, patience=10.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        mode: str = "min",
        factor: float = 0.1,
        patience: int = 10,
        threshold: float = 1e-4,
        min_lr: float = 0.0,
    ) -> None:
        super().__init__(optimizer)
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        if not 0.0 < factor < 1.0:
            raise ValueError(f"factor must be in (0, 1), got {factor}")
        self.mode = mode
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.min_lr = min_lr
        self.best: float | None = None
        self.num_bad_epochs = 0

    def _is_better(self, metric: float) -> bool:
        if self.best is None:
            return True
        if self.mode == "min":
            return metric < self.best * (1.0 - self.threshold)
        return metric > self.best * (1.0 + self.threshold)

    def step(self, metric: float) -> None:
        self.last_epoch += 1
        if self._is_better(metric):
            self.best = metric
            self.num_bad_epochs = 0
        else:
            self.num_bad_epochs += 1
        if self.num_bad_epochs > self.patience:
            new_lr = max(self.optimizer.lr * self.factor, self.min_lr)
            self.optimizer.lr = new_lr
            self.num_bad_epochs = 0
