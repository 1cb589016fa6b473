"""Tests for Pareto-frontier extraction and rendering."""

from repro.tune import (
    TrialResult,
    describe_schedule,
    dominates,
    frontier_table,
    pareto_front,
    render_frontier,
)


def _result(trial_id, acc, share, status="ok", speedup=1.2, kind="adaptive"):
    if kind == "adaptive":
        schedule = {
            "kind": "adaptive",
            "warmup_epochs": 4,
            "thresholds": [2.0, 5.0],
            "ratios": [[4, 1], [1, 1]],
        }
    else:
        schedule = {
            "kind": "heuristic",
            "warmup_epochs": 6,
            "ladder": [[3, [4, 1]]],
            "final_ratio": [1, 1],
        }
    return TrialResult(
        trial_id=trial_id,
        status=status,
        spec={"schedule": schedule},
        best_metric=acc,
        final_metric=acc,
        gp_share=share,
        cycle_speedup=speedup,
    )


class TestDominates:
    def test_strictly_better_on_one_axis(self):
        assert dominates((0.5, 70.0), (0.4, 70.0))
        assert dominates((0.5, 70.0), (0.5, 60.0))
        assert dominates((0.5, 70.0), (0.4, 60.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((0.5, 70.0), (0.5, 70.0))

    def test_trade_offs_do_not_dominate(self):
        assert not dominates((0.6, 60.0), (0.4, 70.0))
        assert not dominates((0.4, 70.0), (0.6, 60.0))


class TestParetoFront:
    def test_synthetic_front(self):
        """Known synthetic set: the front is exactly the staircase of
        non-dominated trials, sorted by GP share."""
        results = [
            _result("low", 70.0, 0.30),     # front (best accuracy)
            _result("mid", 65.0, 0.50),     # front
            _result("high", 55.0, 0.80),    # front (best share)
            _result("dom1", 64.0, 0.45),    # dominated by mid
            _result("dom2", 55.0, 0.79),    # dominated by high
            _result("dom3", 40.0, 0.30),    # dominated by everything
        ]
        front = pareto_front(results)
        assert [r.trial_id for r in front] == ["low", "mid", "high"]

    def test_coincident_points_all_kept(self):
        results = [_result("a", 70.0, 0.5), _result("b", 70.0, 0.5)]
        assert {r.trial_id for r in pareto_front(results)} == {"a", "b"}

    def test_failed_excluded(self):
        results = [
            _result("ok", 60.0, 0.5),
            _result("boom", 99.0, 0.9, status="failed"),
        ]
        assert [r.trial_id for r in pareto_front(results)] == ["ok"]

    def test_nan_axes_never_make_the_front(self):
        results = [
            _result("ok", 60.0, 0.5),
            _result("nan", float("nan"), 0.9),
        ]
        assert [r.trial_id for r in pareto_front(results)] == ["ok"]

    def test_custom_axes(self):
        results = [
            _result("fast", 60.0, 0.5, speedup=2.0),
            _result("slow", 60.0, 0.5, speedup=1.1),
        ]
        front = pareto_front(
            results, x=lambda r: r.cycle_speedup, y=lambda r: r.best_metric
        )
        assert [r.trial_id for r in front] == ["fast"]


class TestRendering:
    def test_describe_schedule_both_kinds(self):
        adaptive = describe_schedule(_result("a", 60.0, 0.5))
        assert "adaptive" in adaptive and "2,5" in adaptive and "4:1" in adaptive
        heuristic = describe_schedule(_result("h", 60.0, 0.5, kind="heuristic"))
        assert "heuristic" in heuristic and "3x4:1" in heuristic

    def test_table_marks_front_rows(self):
        results = [_result("winner", 70.0, 0.5), _result("loser", 60.0, 0.4)]
        table = frontier_table(results)
        winner_line = next(l for l in table.splitlines() if "winner" in l)
        loser_line = next(l for l in table.splitlines() if "loser" in l)
        assert winner_line.startswith("*")
        assert not loser_line.startswith("*")
        assert "50%" in winner_line

    def test_render_marks_front_and_bounds(self):
        results = [
            _result("a", 70.0, 0.3),
            _result("b", 55.0, 0.8),
            _result("c", 40.0, 0.3),
        ]
        plot = render_frontier(results)
        assert plot.count("*") >= 2  # both front members drawn
        assert "o" in plot  # dominated point drawn
        assert "70.00" in plot and "40.00" in plot
        assert "0.30" in plot and "0.80" in plot

    def test_render_with_no_completed_trials(self):
        assert "no completed" in render_frontier(
            [_result("x", 60.0, 0.5, status="failed")]
        )
