"""Search drivers: grid and random.

Every driver turns a :class:`~repro.tune.space.SearchSpace` into
:class:`~repro.tune.trial.TrialSpec` lists; execution is delegated to a
:class:`~repro.tune.runner.SearchRunner`, so all drivers inherit
parallelism, crash isolation and journal resume.  Per-trial seeds and
configuration draws come from ``SeedSequence`` spawning
(:mod:`repro.tune.space`), which makes every driver deterministic in its
``seed`` — the property the journal-resume guarantee rests on.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .runner import SearchRunner
from .space import SearchSpace, seed_for_trial
from .trial import TrialResult, TrialSpec, spec_from_config


def draw_trials(
    space: SearchSpace, seed: int, count: int
) -> list[tuple[dict[str, Any], int]]:
    """``count`` (configuration, trial_seed) pairs from one root seed.

    Configurations come from per-trial spawned child streams (pair ``i``
    is independent of how many pairs are drawn after it); training seeds
    are id-keyed via :func:`~repro.tune.space.seed_for_trial` on the
    trial's id ``f"r{i:03d}"`` — a pure function of identity,
    unaffected by batch composition or the executing worker count, so
    resumed and re-sharded searches reproduce identical trials.
    """
    pairs: list[tuple[dict[str, Any], int]] = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        # The config stream is still the child's first split (unchanged
        # across the positional->id-keyed seed migration, so historical
        # searches draw the same configurations).
        config_ss, _ = child.spawn(2)
        config = space.sample(np.random.default_rng(config_ss))
        trial_seed = seed_for_trial(seed, f"r{i:03d}")
        pairs.append((config, trial_seed))
    return pairs


class GridSearch:
    """Every configuration of the space's cartesian grid, once, all
    trained from seed 0 (an ablation wants the workload constant while
    the schedule varies)."""

    def __init__(self, space: SearchSpace, prefix: str = "g", **base: Any) -> None:
        self.space = space
        self.prefix = prefix
        self.base = base

    def specs(self) -> list[TrialSpec]:
        return [
            spec_from_config(f"{self.prefix}{i:03d}", config, seed=0, **self.base)
            for i, config in enumerate(self.space.grid())
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
        **base: Any,
    ) -> None:
        if num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {num_trials}")
        self.space = space
        self.num_trials = num_trials
        self.seed = seed
        self.base = base

    def specs(self) -> list[TrialSpec]:
        return [
            spec_from_config(f"r{i:03d}", config, seed=trial_seed, **self.base)
            for i, (config, trial_seed) in enumerate(
                draw_trials(self.space, self.seed, self.num_trials)
            )
        ]

    def run(self, runner: Optional[SearchRunner] = None) -> list[TrialResult]:
        return (runner or SearchRunner()).run(self.specs())
