"""Training history records shared by every engine-driven trainer."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class History:
    """Per-epoch training curves.

    ``bp_batches``/``gp_batches`` record the *true* number of batches the
    epoch ran in each phase: ``bp_batches`` counts true-gradient batches
    (warm-up and Phase BP both run full backprop), ``gp_batches`` counts
    prediction-only batches where backward was skipped.  A plain-BP run
    records every batch in ``bp_batches`` and zeros in ``gp_batches``
    (the engine replaced the old ``-1`` placeholder the BP trainer used
    to append).  :attr:`gp_share` is the realized whole-run GP share and
    ``gp_fraction`` the per-epoch series (both recorded, not planned:
    an :class:`~repro.core.AdaptiveSchedule` earns its ratio from
    observed predictor quality, so realized shares are the ground truth
    the schedule-search subsystem optimizes against).

    ``predictor_mape``/``predictor_mse`` hold one dict per epoch mapping
    served-layer index (``engine.layers`` order) to the epoch-mean prediction
    error — with every layer served (``all_layers=True``), exactly the
    series paper Fig 15 plots for VGG13.  They stay
    empty when no predictor is attached (plain BP).  A History starts
    empty; the engine appends one entry per epoch.
    """

    train_loss: list[float] = field(default_factory=list, init=False)
    val_loss: list[float] = field(default_factory=list, init=False)
    val_metric: list[float] = field(default_factory=list, init=False)
    gp_batches: list[int] = field(default_factory=list, init=False)
    bp_batches: list[int] = field(default_factory=list, init=False)
    gp_fraction: list[float] = field(default_factory=list, init=False)
    predictor_mape: list[dict[int, float]] = field(default_factory=list, init=False)
    predictor_mse: list[dict[int, float]] = field(default_factory=list, init=False)

    def __setstate__(self, state: dict) -> None:
        # Checkpoints pickled before a field existed (e.g. pre-tune
        # ``gp_fraction``) restore with defaults for the missing fields
        # instead of AttributeError-ing on first use.
        self.__dict__.update(state)
        for spec in fields(self):
            if spec.name not in self.__dict__:
                self.__dict__[spec.name] = spec.default_factory()

    @property
    def num_epochs(self) -> int:
        return len(self.train_loss)

    @property
    def best_metric(self) -> float:
        if not self.val_metric:
            raise ValueError("no epochs recorded")
        return max(self.val_metric)

    @property
    def final_metric(self) -> float:
        if not self.val_metric:
            raise ValueError("no epochs recorded")
        return self.val_metric[-1]

    @property
    def gp_share(self) -> float:
        """Realized whole-run GP share: prediction-only batches over all
        training batches.  Replaces the hand-computed
        ``sum(gp_batches) / (sum(bp_batches) + sum(gp_batches))``."""
        total = sum(self.bp_batches) + sum(self.gp_batches)
        if total == 0:
            raise ValueError("no training batches recorded")
        return sum(self.gp_batches) / total

    def layer_series(self, layer_index: int, kind: str = "mape") -> list[float]:
        """Error-over-epochs series for one layer (Fig 15 curves);
        ``kind`` is ``"mape"`` or ``"mse"``."""
        if kind not in ("mape", "mse"):
            raise ValueError(f"kind must be 'mape' or 'mse', got {kind!r}")
        source = self.predictor_mape if kind == "mape" else self.predictor_mse
        return [epoch.get(layer_index, float("nan")) for epoch in source]
