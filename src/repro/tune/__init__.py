"""Schedule search: map the accuracy-vs-speedup frontier of ADA-GP.

The paper's §3.5 phase controller ships a fixed heuristic ladder "for
simplicity"; this subsystem searches the general controller's knobs
(:class:`~repro.core.AdaptiveSchedule` thresholds/ratios,
:class:`~repro.core.HeuristicSchedule` ladders, warm-up lengths) by
running many :class:`~repro.core.TrainingEngine` trials — in parallel,
crash-isolated, journaled for resume — and reporting the Pareto
frontier of accuracy vs. realized GP share (the table also shows the
cycle-model speedup it buys).

Layering: ``space`` (what to search) → ``search`` (which trials to run:
every grid point) → ``runner`` (how to run them) → ``trial`` (one
engine run) → ``frontier`` (what the results mean).  Nothing below
``repro.core`` knows this package exists; the engine's only contribution
is the checkpoint-grade schedule config dicts.

Quickstart::

    from repro.tune import Grid, GridSearch, SearchRunner, SearchSpace, pareto_front

    space = SearchSpace({
        "kind": "adaptive",
        "threshold_scale": Grid(1.0, 4.0, 16.0),
        "warmup_epochs": Grid(4, 6),
    })
    results = SearchRunner(workers=4, journal="search.jsonl").run(
        GridSearch(space, epochs=16).specs())
    for best in pareto_front(results):
        print(best.trial_id, best.best_metric, best.gp_share)
"""

from .space import Grid, SearchSpace
from .trial import (
    TrialResult,
    TrialSpec,
    run_trial,
    spec_from_config,
)
from .runner import JOURNAL_VERSION, SearchRunner, load_journal, run_trial_guarded
from .search import GridSearch
from .frontier import (
    describe_schedule,
    dominates,
    frontier_table,
    pareto_front,
    render_frontier,
)

__all__ = [
    "Grid",
    "SearchSpace",
    "TrialSpec",
    "TrialResult",
    "run_trial",
    "spec_from_config",
    "SearchRunner",
    "load_journal",
    "run_trial_guarded",
    "JOURNAL_VERSION",
    "GridSearch",
    "describe_schedule",
    "dominates",
    "pareto_front",
    "frontier_table",
    "render_frontier",
]
