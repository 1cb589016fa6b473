"""Schedule search: map ADA-GP's accuracy-vs-GP-share frontier.

§3.5 describes ADA-GP's adaptivity in general terms and then fixes a
heuristic phase ladder "for simplicity"; `repro.tune` searches the
general controller instead.  This example runs a 14-trial search on
CIFAR10-mini — the paper's heuristic ladder, an aggressive fixed
ladder, and a 12-point grid over the MAPE-adaptive controller
(threshold scale x ratio aggressiveness x warm-up length) — then prints

1. the three-row schedule ablation (paper ladder vs the default
   MAPE-driven :class:`~repro.core.AdaptiveSchedule` vs the aggressive
   always-GP ladder; all three are trials of the search, so the table
   costs nothing extra),
2. every trial and the Pareto frontier, and
3. whether a searched adaptive config dominates the paper ladder
   (equal-or-better accuracy at higher GP share, i.e. more backward
   passes skipped for free).

Trials run through the tune subsystem's process-pool runner with crash
isolation and a resume journal, so the search can be interrupted and
picked back up.

Run:  python examples/schedule_search.py [--model VGG13] [--epochs 20]
          [--workers N] [--journal search.jsonl]
"""

import argparse

from repro.tune import (
    Grid,
    GridSearch,
    SearchRunner,
    SearchSpace,
    TrialSpec,
    frontier_table,
    pareto_front,
    render_frontier,
)
from repro.core import AdaptiveSchedule, HeuristicSchedule
from repro.experiments.formats import format_table

#: AdaptiveSchedule ratio menus: the paper's ladder ratios, and an
#: aggressive menu that skips more backward passes at every quality tier.
PAPER_RATIOS = ((4, 1), (3, 1), (2, 1), (1, 1))
AGGRESSIVE_RATIOS = ((8, 1), (6, 1), (4, 1), (2, 1))


def baseline_specs(base: dict, epochs: int) -> list[TrialSpec]:
    """The two fixed-ladder reference points the search must beat."""
    paper = HeuristicSchedule(
        warmup_epochs=6, ladder=((3, (4, 1)), (3, (3, 1)), (3, (2, 1)))
    )
    aggressive = HeuristicSchedule(warmup_epochs=2, ladder=(), final_ratio=(9, 1))
    return [
        TrialSpec(trial_id="paper-ladder", schedule=paper.to_config(),
                  epochs=epochs, **base),
        TrialSpec(trial_id="aggressive-9to1", schedule=aggressive.to_config(),
                  epochs=epochs, **base),
    ]


def search_specs(model: str, epochs: int) -> list[TrialSpec]:
    """All 14 trials: the two fixed ladders, then the adaptive grid."""
    base = dict(
        model=model, dataset="Cifar10", num_train=256, num_val=128,
        batch_size=32, lr=0.02,
    )
    space = SearchSpace({
        "kind": "adaptive",
        "threshold_scale": Grid(1.0, 4.0, 16.0),
        "ratios": Grid(PAPER_RATIOS, AGGRESSIVE_RATIOS),
        "warmup_epochs": Grid(4, 6),
    })
    return baseline_specs(base, epochs) + GridSearch(
        space, prefix="adaptive-", epochs=epochs, **base
    ).specs()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="VGG13")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--journal", default=None,
                        help="JSONL journal path (enables interrupt/resume)")
    args = parser.parse_args()

    specs = search_specs(args.model, args.epochs)
    print(f"{len(specs)} trials ({args.model}-mini / CIFAR10-mini, "
          f"{args.epochs} epochs each, {args.workers} worker(s))")

    runner = SearchRunner(workers=args.workers, journal=args.journal)
    results = runner.run(specs)
    if args.journal:
        print(f"ran {runner.executed} trials, "
              f"{len(results) - runner.executed} served from {args.journal}")

    # All three ablation rows are trials of the search: the two fixed
    # ladders, and the default adaptive controller as one grid point.
    ablation = [
        ("paper heuristic ladder", specs[0].schedule),
        (
            "MAPE-adaptive (§3.5 general)",
            AdaptiveSchedule(warmup_epochs=6).to_config(),
        ),
        ("aggressive 9:1 after 2 epochs", specs[1].schedule),
    ]
    rows = []
    for name, schedule in ablation:
        result = next(r for r in results if r.spec["schedule"] == schedule)
        rows.append([name, result.best_metric, f"{result.gp_share:.0%}",
                     f"{result.cycle_speedup:.2f}x"])
    print()
    print(
        format_table(
            ["Schedule", "Best accuracy (%)", "GP batch share", "Cycle speedup"],
            rows,
            title=f"Schedule ablation on {args.model}-mini / CIFAR10-like",
        )
    )

    front = pareto_front(results)
    print()
    print(frontier_table(
        results, front,
        title=f"Schedule search on {args.model}-mini / CIFAR10-mini",
    ))
    print()
    print(render_frontier(results, front))

    paper = next(r for r in results if r.trial_id == "paper-ladder")
    dominators = [
        r for r in results
        if r.status == "ok" and r.spec["schedule"]["kind"] == "adaptive"
        and r.best_metric >= paper.best_metric and r.gp_share > paper.gp_share
    ]
    print()
    print(f"paper heuristic ladder: {paper.best_metric:.1f}% best accuracy "
          f"at {paper.gp_share:.0%} GP share ({paper.cycle_speedup:.2f}x cycles)")
    if dominators:
        best = max(dominators, key=lambda r: (r.gp_share, r.best_metric))
        print(f"dominated by {len(dominators)} searched adaptive config(s); "
              f"e.g. {best.trial_id}: {best.best_metric:.1f}% at "
              f"{best.gp_share:.0%} GP share ({best.cycle_speedup:.2f}x)")
    else:
        print("no searched adaptive config dominates the paper ladder here")


if __name__ == "__main__":
    main()
