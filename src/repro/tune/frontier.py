"""Pareto-frontier extraction and ASCII rendering for search results.

The schedule search optimizes two axes at once — accuracy (best
validation metric) and the benefit of skipping backward passes (realized
GP share; the table also shows the cycle-model speedup it buys).  No
single scalar ranks trials; the deliverable is the *frontier*: every
trial no other trial beats on both axes simultaneously.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..experiments.formats import format_table
from .trial import TrialResult


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True when point ``a`` is at least as good as ``b`` on both axes
    and strictly better on one (both axes maximized)."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def pareto_front(results: Sequence[TrialResult]) -> list[TrialResult]:
    """Non-dominated subset of ``results`` on (GP share, best metric),
    sorted by GP share ascending.

    Both axes are maximized.  Failed trials are excluded (they have no
    metrics); points with NaN on either axis never make the front.
    Coincident points are all kept — each is evidence the same trade-off
    is achievable by more than one configuration.
    """
    candidates = [
        (result.gp_share, result.best_metric, result)
        for result in results
        if result.status == "ok"
    ]
    candidates = [
        c for c in candidates if not (math.isnan(c[0]) or math.isnan(c[1]))
    ]
    front = [
        (cx, cy, result)
        for cx, cy, result in candidates
        if not any(
            dominates((ox, oy), (cx, cy))
            for ox, oy, other in candidates
            if other is not result
        )
    ]
    front.sort(key=lambda c: (c[0], c[1]))
    return [result for _, _, result in front]


def describe_schedule(result: TrialResult) -> str:
    """Compact human label for a trial's schedule config."""
    config = (result.spec or {}).get("schedule", {})
    kind = config.get("kind", "?")
    if kind == "adaptive":
        thresholds = ",".join(f"{t:g}" for t in config.get("thresholds", ()))
        ratios = ",".join(f"{k}:{m}" for k, m in config.get("ratios", ()))
        return (
            f"adaptive w={config.get('warmup_epochs')} "
            f"mape<=({thresholds}) r=({ratios})"
        )
    if kind == "heuristic":
        rungs = ",".join(
            f"{window}x{k}:{m}" for window, (k, m) in config.get("ladder", ())
        )
        final = config.get("final_ratio", ("?", "?"))
        rungs = rungs + "," if rungs else ""
        return (
            f"heuristic w={config.get('warmup_epochs')} "
            f"[{rungs}{final[0]}:{final[1]}]"
        )
    return str(config)


def frontier_table(
    results: Sequence[TrialResult],
    front: Optional[Sequence[TrialResult]] = None,
    title: str = "Accuracy vs GP-share frontier",
) -> str:
    """Per-trial table with the Pareto front marked (``*``)."""
    front = pareto_front(results) if front is None else front
    on_front = {id(result) for result in front}
    rows = []
    for result in sorted(
        results, key=lambda r: (math.isnan(r.gp_share), -(r.gp_share if not math.isnan(r.gp_share) else 0.0))
    ):
        rows.append(
            [
                "*" if id(result) in on_front else "",
                result.trial_id,
                describe_schedule(result),
                f"{result.best_metric:.1f}" if not math.isnan(result.best_metric) else "-",
                f"{result.gp_share:.0%}" if not math.isnan(result.gp_share) else "-",
                f"{result.cycle_speedup:.2f}x" if not math.isnan(result.cycle_speedup) else "-",
                result.status,
            ]
        )
    return format_table(
        ["", "Trial", "Schedule", "Best acc (%)", "GP share", "Cycle speedup", "Status"],
        rows,
        title=title,
    )


def render_frontier(
    results: Sequence[TrialResult],
    front: Optional[Sequence[TrialResult]] = None,
) -> str:
    """ASCII scatter of all trials, best accuracy over GP share,
    Pareto-front members drawn as ``*``.

    Dominated trials draw as ``o``; the axes carry min/max ticks.
    """
    front = pareto_front(results) if front is None else front
    on_front = {id(member) for member in front}
    points = [
        (result.gp_share, result.best_metric, id(result) in on_front)
        for result in results
        if result.status == "ok"
        and not (math.isnan(result.gp_share) or math.isnan(result.best_metric))
    ]
    if not points:
        return "(no completed trials to plot)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    width, height = 56, 14  # plot body, in characters
    grid = [[" "] * width for _ in range(height)]
    for px, py, is_front in sorted(points, key=lambda p: p[2]):  # front last
        col = min(width - 1, int((px - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((py - y_lo) / y_span * (height - 1)))
        grid[height - 1 - row][col] = "*" if is_front else "o"
    lines = ["best accuracy (%)  (* = Pareto front)"]
    lines.append(f"{y_hi:8.2f} +{'-' * width}+")
    for row in grid:
        lines.append(" " * 9 + "|" + "".join(row) + "|")
    lines.append(f"{y_lo:8.2f} +{'-' * width}+")
    lines.append(
        " " * 10 + f"{x_lo:<10.2f}{'GP share':^{width - 20}}{x_hi:>10.2f}"
    )
    return "\n".join(lines)
