"""Tests for the search drivers."""

from repro.tune import Grid, GridSearch, RandomSearch, SearchSpace, draw_trials

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
        specs = GridSearch(_space(), epochs=2, **BASE).specs()
        assert len(specs) == 4
        assert [s.trial_id for s in specs] == ["g000", "g001", "g002", "g003"]
        assert {s.seed for s in specs} == {0}  # controlled comparison
        scales = [s.schedule["thresholds"][0] for s in specs]
        assert scales == [2.0, 4.0, 8.0, 16.0]

    def test_random_search_is_deterministic_in_seed(self):
        a = RandomSearch(_space(), num_trials=6, seed=3, epochs=2, **BASE).specs()
        b = RandomSearch(_space(), num_trials=6, seed=3, epochs=2, **BASE).specs()
        c = RandomSearch(_space(), num_trials=6, seed=4, epochs=2, **BASE).specs()
        assert a == b
        assert a != c

    def test_draw_trials_never_shares_seeds(self):
        pairs = draw_trials(_space(), seed=0, count=32)
        assert len({seed for _, seed in pairs}) == 32
