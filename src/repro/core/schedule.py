"""Phase scheduling: when to backpropagate and when to predict (§3.1, §3.5).

ADA-GP runs three phases:

* **Warm Up** — the first ``L`` epochs train purely with backprop while
  the predictor learns from true gradients.
* **Phase BP / Phase GP** — afterwards, every epoch alternates ``k``
  gradient-prediction batches with ``m`` backprop batches.

The paper's shipped heuristic (§3.5) fixes the ``k:m`` ratio per epoch
window: 4:1 for 4 epochs, 3:1 for 4 epochs, 2:1 for 4 epochs, then 1:1
for the rest of training.  :class:`HeuristicSchedule` reproduces it;
:class:`AdaptiveSchedule` implements the adaptive variant sketched in
§3.5 (ratio driven by observed predictor quality) as an extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Phase(str, Enum):
    """Training phase for a single batch."""

    WARMUP = "warmup"  # backprop + predictor training, pre-alternation
    BP = "bp"  # backprop + predictor training
    GP = "gp"  # predicted gradients only, backprop skipped


# The §3.5 ratio ladder: (epochs_in_window, (k, m)).
PAPER_RATIO_LADDER: tuple[tuple[int, tuple[int, int]], ...] = (
    (4, (4, 1)),
    (4, (3, 1)),
    (4, (2, 1)),
)
PAPER_FINAL_RATIO: tuple[int, int] = (1, 1)


class RatioSchedule:
    """A phase schedule is a ``k:m`` GP:BP ratio per epoch: subclasses
    decide :meth:`ratio_for_epoch`, the rest follows from it here, once.
    Within an epoch, batches cycle GP-first: ``k`` GP batches then ``m``
    BP batches, matching "Initially, it proceeds with Phase GP ... for k
    batches before switching to Phase BP for m batches".
    """

    def phase_for(self, epoch: int, batch_index: int) -> Phase:
        """Phase of batch ``batch_index`` (0-based) within ``epoch``."""
        ratio = self.ratio_for_epoch(epoch)
        if ratio is None:
            return Phase.WARMUP
        k, m = ratio
        position = batch_index % (k + m)
        return Phase.GP if position < k else Phase.BP

    def observe_mape(self, mape: float) -> None:
        """Fed each layer's predictor MAPE after every true-gradient
        batch; a fixed schedule ignores it."""


@dataclass
class HeuristicSchedule(RatioSchedule):
    """The paper's fixed ratio ladder (§3.5).

    ``warmup_epochs`` is the paper's ``L`` (e.g. 10 for the full runs;
    the mini experiments use smaller values).
    """

    warmup_epochs: int = 10
    ladder: tuple[tuple[int, tuple[int, int]], ...] = PAPER_RATIO_LADDER
    final_ratio: tuple[int, int] = PAPER_FINAL_RATIO

    def ratio_for_epoch(self, epoch: int) -> tuple[int, int] | None:
        """(k, m) for an epoch, or None during warm-up."""
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        if epoch < self.warmup_epochs:
            return None
        offset = epoch - self.warmup_epochs
        for window, ratio in self.ladder:
            if offset < window:
                return ratio
            offset -= window
        return self.final_ratio

    # -- state / config round-trip (checkpointing and schedule search) --

    def state_dict(self) -> dict:
        """Mutable state; the heuristic ladder is stateless."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError(
                f"HeuristicSchedule carries no state, got keys {sorted(state)}"
            )

    def to_config(self) -> dict:
        """JSON-safe constructor arguments (inverse of :meth:`from_config`)."""
        return {
            "kind": "heuristic",
            "warmup_epochs": self.warmup_epochs,
            "ladder": [[window, list(ratio)] for window, ratio in self.ladder],
            "final_ratio": list(self.final_ratio),
        }

    @classmethod
    def from_config(cls, config: dict) -> "HeuristicSchedule":
        kind = config.get("kind", "heuristic")
        if kind != "heuristic":
            raise ValueError(f"expected kind 'heuristic', got {kind!r}")
        return cls(
            warmup_epochs=int(config["warmup_epochs"]),
            ladder=tuple(
                (int(window), (int(ratio[0]), int(ratio[1])))
                for window, ratio in config["ladder"]
            ),
            final_ratio=(
                int(config["final_ratio"][0]),
                int(config["final_ratio"][1]),
            ),
        )


@dataclass
class AdaptiveSchedule(RatioSchedule):
    """Quality-driven ratio control (the general algorithm of §3.5).

    The paper motivates adapting ``m`` upward as training converges
    because "the gradients' changes need to be increasingly precise".
    This controller picks the ratio from the most recent predictor MAPE
    (averaged over layers): better prediction quality earns more GP
    batches, and the available ratios shrink toward 1:1 as in the paper.
    Call :meth:`observe_mape` after every Phase BP batch.
    """

    warmup_epochs: int = 10
    thresholds: tuple[float, ...] = (2.0, 5.0, 10.0)  # MAPE % cut-offs
    ratios: tuple[tuple[int, int], ...] = ((4, 1), (3, 1), (2, 1), (1, 1))
    _recent_mape: float = field(default=float("inf"), init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.ratios) != len(self.thresholds) + 1:
            raise ValueError("need exactly one more ratio than thresholds")

    def observe_mape(self, mape: float) -> None:
        """Record the latest predictor MAPE (exponential smoothing)."""
        if self._recent_mape == float("inf"):
            self._recent_mape = mape
        else:
            self._recent_mape = 0.7 * self._recent_mape + 0.3 * mape

    def ratio_for_epoch(self, epoch: int) -> tuple[int, int] | None:
        """(k, m) chosen from the smoothed MAPE, or None during warm-up."""
        if epoch < self.warmup_epochs:
            return None
        for threshold, ratio in zip(self.thresholds, self.ratios):
            if self._recent_mape <= threshold:
                return ratio
        return self.ratios[-1]

    def metrics(self):
        """The ``repro_schedule_recent_mape`` gauge row (``repro.obs``
        pulls it); nothing until a MAPE was observed — the initial
        ``inf`` is a sentinel, not a measurement, and is not JSON."""
        if self._recent_mape == float("inf"):
            return []
        return [("repro_schedule_recent_mape", "gauge", self._recent_mape, {})]

    # -- state / config round-trip (checkpointing and schedule search) --

    def state_dict(self) -> dict:
        """The smoothed predictor quality the controller has earned so
        far — everything :meth:`observe_mape` mutates.  Restoring it
        reproduces ratio decisions bit-identically across a
        checkpoint/resume boundary."""
        return {"_recent_mape": self._recent_mape}

    def load_state_dict(self, state: dict) -> None:
        self._recent_mape = float(state["_recent_mape"])

    def to_config(self) -> dict:
        """JSON-safe constructor arguments (state excluded; see
        :meth:`state_dict`)."""
        return {
            "kind": "adaptive",
            "warmup_epochs": self.warmup_epochs,
            "thresholds": [float(t) for t in self.thresholds],
            "ratios": [list(ratio) for ratio in self.ratios],
        }

    @classmethod
    def from_config(cls, config: dict) -> "AdaptiveSchedule":
        kind = config.get("kind", "adaptive")
        if kind != "adaptive":
            raise ValueError(f"expected kind 'adaptive', got {kind!r}")
        return cls(
            warmup_epochs=int(config["warmup_epochs"]),
            thresholds=tuple(float(t) for t in config["thresholds"]),
            ratios=tuple(
                (int(ratio[0]), int(ratio[1])) for ratio in config["ratios"]
            ),
        )


SCHEDULE_KINDS = {
    "heuristic": HeuristicSchedule,
    "adaptive": AdaptiveSchedule,
}


def schedule_from_config(config: dict) -> RatioSchedule:
    """Rebuild either schedule class from its :meth:`to_config` dict.

    The ``kind`` key dispatches; configs are JSON-safe, so schedules can
    travel through the tune subsystem's trial journal and come back as
    working objects.
    """
    try:
        kind = config["kind"]
    except KeyError:
        raise ValueError("schedule config needs a 'kind' key") from None
    try:
        cls = SCHEDULE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown schedule kind {kind!r}; choose from {sorted(SCHEDULE_KINDS)}"
        ) from None
    return cls.from_config(config)


def phase_counts(
    schedule: RatioSchedule,
    num_epochs: int,
    batches_per_epoch: int,
) -> dict[Phase, int]:
    """Count batches per phase over a whole training run.

    Used by the accelerator and pipeline simulators to weight per-batch
    costs into end-to-end training costs.  Computed arithmetically per
    epoch (full-ImageNet runs have tens of thousands of batches per
    epoch, so per-batch iteration would dominate the simulators).
    """
    counts = {Phase.WARMUP: 0, Phase.BP: 0, Phase.GP: 0}
    for epoch in range(num_epochs):
        ratio = schedule.ratio_for_epoch(epoch)
        if ratio is None:
            counts[Phase.WARMUP] += batches_per_epoch
            continue
        k, m = ratio
        cycle = k + m
        full_cycles, remainder = divmod(batches_per_epoch, cycle)
        gp = full_cycles * k + min(remainder, k)
        counts[Phase.GP] += gp
        counts[Phase.BP] += batches_per_epoch - gp
    return counts
