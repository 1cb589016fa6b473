"""Search driver: the cartesian grid.

:class:`GridSearch` turns a :class:`~repro.tune.space.SearchSpace` into
a :class:`~repro.tune.trial.TrialSpec` list; execution is delegated to a
:class:`~repro.tune.runner.SearchRunner`, so the search inherits
parallelism, crash isolation and journal resume.  The list is a pure
function of the space and the base keywords — the property the
journal-resume guarantee rests on.
"""

from __future__ import annotations

from typing import Any

from .space import SearchSpace
from .trial import TrialSpec, spec_from_config


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
