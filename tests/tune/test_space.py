"""Tests for search-space primitives: domains, grids, spawned rngs."""

import json

import numpy as np
import pytest

from repro.tune import (
    Choice,
    Fixed,
    Grid,
    LogUniform,
    SearchSpace,
    Uniform,
    spawn_rngs,
)


class TestDomains:
    def test_grid_enumerates_in_order(self):
        assert Grid(1, 2, 3).values() == (1, 2, 3)
        assert Grid([1, 2, 3]).values() == (1, 2, 3)

    def test_grid_freezes_list_options(self):
        """Nested lists become tuples, so sampled configs compare like
        the literals a TrialSpec schedule config stores."""
        domain = Grid([(4, 1), (3, 1)], [(2, 1)])
        assert domain.values() == (((4, 1), (3, 1)), ((2, 1),))

    def test_grid_needs_options(self):
        with pytest.raises(ValueError):
            Grid()

    def test_choice_is_a_grid(self):
        assert isinstance(Choice("a", "b"), Grid)
        assert Choice("a", "b").values() == ("a", "b")

    def test_grid_sample_stays_in_options(self):
        domain = Grid(10, 20, 30)
        rng = np.random.default_rng(0)
        assert all(domain.sample(rng) in (10, 20, 30) for _ in range(50))

    def test_uniform_bounds(self):
        domain = Uniform(2.0, 3.0)
        rng = np.random.default_rng(0)
        samples = [domain.sample(rng) for _ in range(200)]
        assert all(2.0 <= s < 3.0 for s in samples)
        with pytest.raises(ValueError):
            Uniform(3.0, 3.0)

    def test_log_uniform_bounds_and_spread(self):
        domain = LogUniform(1e-3, 1.0)
        rng = np.random.default_rng(0)
        samples = [domain.sample(rng) for _ in range(500)]
        assert all(1e-3 <= s < 1.0 for s in samples)
        # Log-uniform: about a third of the mass in each decade.
        below = sum(s < 1e-2 for s in samples) / len(samples)
        assert 0.2 < below < 0.5
        with pytest.raises(ValueError):
            LogUniform(0.0, 1.0)

    def test_continuous_domains_refuse_grid(self):
        with pytest.raises(TypeError):
            Uniform(0.0, 1.0).values()
        with pytest.raises(TypeError):
            LogUniform(0.1, 1.0).values()


class TestSearchSpace:
    def _space(self):
        return SearchSpace(
            {
                "kind": "adaptive",  # fixed value wraps into Grid
                "scale": Grid(1.0, 4.0),
                "warmup": Grid(2, 4, 6),
            }
        )

    def test_fixed_values_pass_through(self):
        space = self._space()
        config = space.sample(np.random.default_rng(0))
        assert config["kind"] == "adaptive"

    def test_fixed_sequences_stay_whole(self):
        """A bare tuple/ladder is one constant, never an implicit grid
        over its elements."""
        space = SearchSpace(
            {
                "final_ratio": (9, 1),
                "ladder": [[2, [4, 1]], [2, [3, 1]]],
                "scale": Grid(1.0, 2.0),
            }
        )
        config = space.sample(np.random.default_rng(0))
        assert config["final_ratio"] == (9, 1)
        assert config["ladder"] == ((2, (4, 1)), (2, (3, 1)))
        grid = list(space.grid())
        assert len(grid) == 2  # only the explicit Grid varies
        assert all(c["final_ratio"] == (9, 1) for c in grid)
        assert Fixed((9, 1)).values() == ((9, 1),)

    def test_grid_is_the_cartesian_product(self):
        space = self._space()
        grid = list(space.grid())
        assert len(grid) == space.grid_size() == 6
        assert grid[0] == {"kind": "adaptive", "scale": 1.0, "warmup": 2}
        # First parameter varies slowest.
        assert [c["scale"] for c in grid] == [1.0, 1.0, 1.0, 4.0, 4.0, 4.0]
        assert len({tuple(sorted(c.items())) for c in grid}) == 6

    def test_grid_with_continuous_domain_raises(self):
        space = SearchSpace({"x": Uniform(0, 1)})
        with pytest.raises(TypeError):
            list(space.grid())

    def test_sampling_is_deterministic_in_the_seed(self):
        space = self._space()
        assert space.sample_many(7, 5) == space.sample_many(7, 5)
        assert space.sample_many(7, 5) != space.sample_many(8, 5)

    def test_sample_prefixes_are_stable(self):
        """Trial i's configuration is independent of how many trials are
        drawn — growing a search keeps its prefix."""
        space = self._space()
        assert space.sample_many(3, 10)[:4] == space.sample_many(3, 4)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace({})


class TestSpawnedStreams:
    def test_spawn_rngs_deterministic(self):
        a = [rng.integers(1 << 30) for rng in spawn_rngs(0, 4)]
        b = [rng.integers(1 << 30) for rng in spawn_rngs(0, 4)]
        assert a == b

    def test_spawn_rngs_non_colliding(self):
        """Spawned per-trial streams never coincide — unlike seed+i
        arithmetic, which collides across overlapping searches."""
        draws = [tuple(rng.integers(1 << 30, size=4)) for rng in spawn_rngs(0, 64)]
        assert len(set(draws)) == 64

    def test_spawn_seeds_json_safe_and_distinct(self):
        """The per-trial seeds a search journals are plain, distinct ints."""
        from repro.tune import draw_trials

        space = SearchSpace({"lr": Uniform(0.01, 0.1)})
        seeds = [seed for _, seed in draw_trials(space, seed=5, count=64)]
        assert all(type(s) is int for s in seeds)
        assert json.loads(json.dumps(seeds)) == seeds
        assert len(set(seeds)) == 64
        assert seeds == [seed for _, seed in draw_trials(space, seed=5, count=64)]

    def test_spawn_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_seed_for_trial_is_pure_in_identity(self):
        from repro.tune import seed_for_trial

        # Same (root seed, id) always maps to the same seed; position,
        # batch size and worker count never enter the derivation.
        assert seed_for_trial(5, "r003") == seed_for_trial(5, "r003")
        assert seed_for_trial(5, "r003") != seed_for_trial(6, "r003")
        assert seed_for_trial(5, "r003") != seed_for_trial(5, "r004")
        seeds = {seed_for_trial(0, f"r{i:03d}") for i in range(256)}
        assert len(seeds) == 256  # no collisions across a wide batch
        assert all(isinstance(s, int) and 0 <= s < 2**32 for s in seeds)
