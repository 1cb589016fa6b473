"""Tests for the search drivers."""

import math

import pytest

from repro.tune import (
    Grid,
    GridSearch,
    RandomSearch,
    SearchRunner,
    SearchSpace,
    SuccessiveHalving,
    TrialResult,
    draw_trials,
)

BASE = dict(
    model="VGG13", dataset="Cifar10", num_train=32, num_val=16,
    batch_size=16, lr=0.05,
)


def _space():
    return SearchSpace(
        {
            "kind": "adaptive",
            "threshold_scale": Grid(1.0, 2.0, 4.0, 8.0),
            "warmup_epochs": 1,
        }
    )


class TestDrivers:
    def test_grid_search_covers_the_grid_with_one_seed(self):
        specs = GridSearch(_space(), trial_seed=7, epochs=2, **BASE).specs()
        assert len(specs) == 4
        assert [s.trial_id for s in specs] == ["g000", "g001", "g002", "g003"]
        assert {s.seed for s in specs} == {7}  # controlled comparison
        scales = [s.schedule["thresholds"][0] for s in specs]
        assert scales == [2.0, 4.0, 8.0, 16.0]

    def test_grid_search_per_trial_seeds(self):
        specs = GridSearch(
            _space(), trial_seed=7, per_trial_seeds=True, epochs=2, **BASE
        ).specs()
        assert len({s.seed for s in specs}) == len(specs)

    def test_random_search_is_deterministic_in_seed(self):
        a = RandomSearch(_space(), num_trials=6, seed=3, epochs=2, **BASE).specs()
        b = RandomSearch(_space(), num_trials=6, seed=3, epochs=2, **BASE).specs()
        c = RandomSearch(_space(), num_trials=6, seed=4, epochs=2, **BASE).specs()
        assert a == b
        assert a != c

    def test_draw_trials_never_shares_seeds(self):
        pairs = draw_trials(_space(), seed=0, count=32)
        assert len({seed for _, seed in pairs}) == 32


class _FakeRunner:
    """Deterministic metric curves keyed by the trial's first threshold
    (monotone in threshold_scale), recording every spec it was given."""

    def __init__(self):
        self.seen = []

    def run(self, specs):
        self.seen.append(list(specs))
        results = []
        for spec in specs:
            quality = spec.schedule["thresholds"][0]  # 2.0 * scale
            results.append(
                TrialResult(
                    trial_id=spec.trial_id,
                    status="ok",
                    spec=spec.to_dict(),
                    epochs_run=spec.epochs,
                    val_metric=[quality * (e + 1) for e in range(spec.epochs)],
                    best_metric=quality * spec.epochs,
                    final_metric=quality * spec.epochs,
                )
            )
        return results


class TestSuccessiveHalving:
    def _sha(self, **kwargs):
        params = dict(num_trials=4, seed=0, min_epochs=1, max_epochs=4, eta=2)
        params.update(kwargs)
        return SuccessiveHalving(_space(), **params, **BASE)

    def test_rung_budgets_grow_geometrically(self):
        assert self._sha().rung_budgets() == [1, 2, 4]
        assert self._sha(min_epochs=3, max_epochs=13, eta=2).rung_budgets() == [3, 6, 12, 13]

    def test_prunes_strictly_by_rung_metric(self):
        """Only the top ceil(n/eta) by metric-at-the-rung-boundary are
        promoted, every rung."""
        runner = _FakeRunner()
        outcome = self._sha().run(runner)
        assert outcome.rung_budgets == [1, 2, 4]
        assert [len(r) for r in runner.seen] == [4, 2, 1]

        def scale_of(spec):
            return spec.schedule["thresholds"][0]

        rung0 = runner.seen[0]
        promoted = runner.seen[1]
        top_two = sorted(rung0, key=scale_of, reverse=True)[:2]
        assert {scale_of(s) for s in promoted} == {scale_of(s) for s in top_two}
        final = runner.seen[2]
        assert scale_of(final[0]) == max(scale_of(s) for s in rung0)
        # Cutoffs are exactly the worst promoted trial's rung metric.
        assert outcome.cutoffs[0] == min(scale_of(s) for s in promoted) * 1
        assert outcome.survivors[0].trial_id == final[0].trial_id

    def test_failed_trials_rank_last(self):
        class FailingFirstRunner(_FakeRunner):
            def run(self, specs):
                results = super().run(specs)
                if len(self.seen) == 1:  # rung 0 only
                    # Fail the would-be winner: highest quality trial.
                    best = max(
                        results, key=lambda r: r.spec["schedule"]["thresholds"][0]
                    )
                    best.status = "failed"
                    best.val_metric = []
                return results

        runner = FailingFirstRunner()
        outcome = self._sha().run(runner)
        promoted_ids = {spec.trial_id.split("-")[0] for spec in runner.seen[1]}
        failed_id = max(
            runner.seen[0],
            key=lambda s: s.schedule["thresholds"][0],
        ).trial_id.split("-")[0]
        assert failed_id not in promoted_ids
        assert all(not math.isnan(r.metric_at(1)) for r in outcome.survivors)

    def test_end_to_end_with_real_trials(self):
        """A real (tiny) halving run: budgets honored, survivors ran the
        full budget, everything deterministic."""
        sha = SuccessiveHalving(
            _space(), num_trials=2, seed=1, min_epochs=1, max_epochs=2, **BASE
        )
        outcome = sha.run(SearchRunner())
        assert outcome.rung_budgets == [1, 2]
        assert outcome.survivors[0].epochs_run == 2
        again = sha.run(SearchRunner())
        assert [r.deterministic_dict() for r in outcome.results] == [
            r.deterministic_dict() for r in again.results
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            SuccessiveHalving(_space(), num_trials=1)
        with pytest.raises(ValueError):
            SuccessiveHalving(_space(), num_trials=4, eta=1)
        with pytest.raises(ValueError):
            SuccessiveHalving(_space(), num_trials=4, min_epochs=0)
        with pytest.raises(ValueError):
            SuccessiveHalving(_space(), num_trials=4, monitor="train_loss")
        # epochs is driver-managed; catching it at construction beats a
        # TypeError deep inside run().
        with pytest.raises(ValueError, match="driver-managed"):
            SuccessiveHalving(_space(), num_trials=4, epochs=16)
