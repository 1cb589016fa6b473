"""Search drivers: grid, random, and successive halving.

Every driver turns a :class:`~repro.tune.space.SearchSpace` into
:class:`~repro.tune.trial.TrialSpec` lists; execution is delegated to a
:class:`~repro.tune.runner.SearchRunner`, so all drivers inherit
parallelism, crash isolation and journal resume.  Per-trial seeds and
configuration draws come from ``SeedSequence`` spawning
(:mod:`repro.tune.space`), which makes every driver deterministic in its
``seed`` — the property the journal-resume guarantee rests on.

:class:`SuccessiveHalving` additionally halves: trials run rung by rung
with geometrically growing epoch budgets and only the top ``1/eta`` of
each rung is promoted — that synchronized ranking is where the compute
saving comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .runner import SearchRunner
from .space import SearchSpace
from .trial import TrialResult, TrialSpec, spec_from_config


def draw_trials(
    space: SearchSpace, seed: int, count: int, prefix: str = "r"
) -> list[tuple[dict[str, Any], int]]:
    """``count`` (configuration, trial_seed) pairs from one root seed.

    Configurations come from per-trial spawned child streams (pair ``i``
    is independent of how many pairs are drawn after it); training seeds
    are id-keyed via :func:`~repro.tune.space.seed_for_trial` on the
    trial's base id ``f"{prefix}{i:03d}"`` — a pure function of identity,
    unaffected by batch composition or the executing worker count, so
    resumed and re-sharded searches reproduce identical trials.
    """
    from .space import seed_for_trial

    pairs: list[tuple[dict[str, Any], int]] = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        # The config stream is still the child's first split (unchanged
        # across the positional->id-keyed seed migration, so historical
        # searches draw the same configurations).
        config_ss, _ = child.spawn(2)
        config = space.sample(np.random.default_rng(config_ss))
        trial_seed = seed_for_trial(seed, f"{prefix}{i:03d}")
        pairs.append((config, trial_seed))
    return pairs


class GridSearch:
    """Every configuration of the space's cartesian grid, once.

    ``trial_seed`` fixes the training seed shared by all trials (an
    ablation wants the workload constant while the schedule varies);
    pass ``per_trial_seeds=True`` to spawn one seed per grid point
    instead.
    """

    def __init__(
        self,
        space: SearchSpace,
        trial_seed: int = 0,
        per_trial_seeds: bool = False,
        prefix: str = "g",
        **base: Any,
    ) -> None:
        self.space = space
        self.trial_seed = trial_seed
        self.per_trial_seeds = per_trial_seeds
        self.prefix = prefix
        self.base = base

    def specs(self) -> list[TrialSpec]:
        from .space import seed_for_trial

        configs = list(self.space.grid())
        return [
            spec_from_config(
                f"{self.prefix}{i:03d}",
                config,
                seed=(
                    seed_for_trial(self.trial_seed, f"{self.prefix}{i:03d}")
                    if self.per_trial_seeds
                    else self.trial_seed
                ),
                **self.base,
            )
            for i, config in enumerate(configs)
        ]

    def run(self, runner: Optional[SearchRunner] = None) -> list[TrialResult]:
        return (runner or SearchRunner()).run(self.specs())


class RandomSearch:
    """``num_trials`` independent draws from the space."""

    def __init__(
        self,
        space: SearchSpace,
        num_trials: int,
        seed: int = 0,
        prefix: str = "r",
        **base: Any,
    ) -> None:
        if num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {num_trials}")
        self.space = space
        self.num_trials = num_trials
        self.seed = seed
        self.prefix = prefix
        self.base = base

    def specs(self) -> list[TrialSpec]:
        return [
            spec_from_config(f"{self.prefix}{i:03d}", config, seed=trial_seed, **self.base)
            for i, (config, trial_seed) in enumerate(
                draw_trials(self.space, self.seed, self.num_trials, self.prefix)
            )
        ]

    def run(self, runner: Optional[SearchRunner] = None) -> list[TrialResult]:
        return (runner or SearchRunner()).run(self.specs())


@dataclass
class HalvingOutcome:
    """Everything a successive-halving run produced.

    ``results`` holds every rung's trial results (rung-major order);
    ``survivors`` the final rung's promoted results, best first;
    ``cutoffs[k]`` the metric bar a trial had to meet at the end of rung
    ``k`` to be promoted.
    """

    rung_budgets: list[int]
    results: list[TrialResult] = field(default_factory=list)
    rungs: list[list[TrialResult]] = field(default_factory=list)
    cutoffs: list[float] = field(default_factory=list)
    survivors: list[TrialResult] = field(default_factory=list)


class SuccessiveHalving:
    """Halve-as-you-go random search (the classic SHA ladder).

    ``num_trials`` configurations start at ``min_epochs``; after each
    rung only the top ``ceil(n / eta)`` by the monitored metric at the
    rung boundary are promoted to an ``eta``-times larger budget, until
    ``max_epochs``.  Promotions re-run from scratch at the larger budget
    (trials are deterministic, so rung prefixes reproduce exactly and
    the journal deduplicates across interrupted searches).

    Ties rank deterministically (metric, then trial index); failed or
    too-short trials rank last.
    """

    def __init__(
        self,
        space: SearchSpace,
        num_trials: int,
        seed: int = 0,
        min_epochs: int = 2,
        max_epochs: int = 16,
        eta: int = 2,
        monitor: str = "val_metric",
        mode: str = "max",
        prefix: str = "s",
        **base: Any,
    ) -> None:
        if num_trials < 2:
            raise ValueError(f"need at least 2 trials to halve, got {num_trials}")
        if not 1 <= min_epochs <= max_epochs:
            raise ValueError(
                f"need 1 <= min_epochs <= max_epochs, got {min_epochs}, {max_epochs}"
            )
        if eta < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        if monitor != "val_metric":
            # Rung ranking reads TrialResult.val_metric; other monitors
            # would need their own recorded series.
            raise ValueError("successive halving ranks by 'val_metric' only")
        if "epochs" in base:
            raise ValueError(
                "epochs is driver-managed in successive halving: budgets "
                "come from min_epochs/max_epochs"
            )
        self.space = space
        self.num_trials = num_trials
        self.seed = seed
        self.min_epochs = min_epochs
        self.max_epochs = max_epochs
        self.eta = eta
        self.monitor = monitor
        self.mode = mode
        self.prefix = prefix
        self.base = base

    def rung_budgets(self) -> list[int]:
        budgets = [self.min_epochs]
        while budgets[-1] < self.max_epochs:
            budgets.append(min(budgets[-1] * self.eta, self.max_epochs))
        return budgets

    def _rank_key(self, result: TrialResult, budget: int, index: int):
        value = result.metric_at(budget)
        if math.isnan(value):
            value = float("-inf") if self.mode == "max" else float("inf")
        ordered = -value if self.mode == "max" else value
        return (ordered, index)

    def run(self, runner: Optional[SearchRunner] = None) -> HalvingOutcome:
        runner = runner or SearchRunner()
        budgets = self.rung_budgets()
        outcome = HalvingOutcome(rung_budgets=budgets)
        # Seeds are keyed on the base id (f"{prefix}{index:03d}", no rung
        # suffix), so a promoted config trains from the same seed at
        # every rung — the determinism the rung-prefix guarantee needs.
        active = list(
            enumerate(
                draw_trials(self.space, self.seed, self.num_trials, self.prefix)
            )
        )
        for rung, budget in enumerate(budgets):
            specs = [
                spec_from_config(
                    f"{self.prefix}{index:03d}-r{rung}",
                    config,
                    seed=trial_seed,
                    epochs=budget,
                    **self.base,
                )
                for index, (config, trial_seed) in active
            ]
            results = runner.run(specs)
            outcome.rungs.append(results)
            outcome.results.extend(results)
            ranked = sorted(
                zip((index for index, _ in active), active, results),
                key=lambda row: self._rank_key(row[2], budget, row[0]),
            )
            if rung == len(budgets) - 1:
                keep = max(1, math.ceil(len(ranked) / self.eta))
                outcome.survivors = [result for _, _, result in ranked[:keep]]
                break
            keep = max(1, math.ceil(len(ranked) / self.eta))
            kept = ranked[:keep]
            cutoff = kept[-1][2].metric_at(budget)
            outcome.cutoffs.append(cutoff)
            active = [pair for _, pair, _ in kept]
        return outcome
