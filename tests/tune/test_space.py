"""Tests for search-space primitives: grids and their cartesian product."""

import pytest

from repro.tune import Grid, SearchSpace


class TestDomains:
    def test_grid_enumerates_in_order(self):
        assert Grid(1, 2, 3).options == (1, 2, 3)
        assert Grid([1, 2, 3]).options == (1, 2, 3)

    def test_grid_freezes_list_options(self):
        """Nested lists become tuples, so grid configs compare like
        the literals a TrialSpec schedule config stores."""
        domain = Grid([(4, 1), (3, 1)], [(2, 1)])
        assert domain.options == (((4, 1), (3, 1)), ((2, 1),))

    def test_grid_needs_options(self):
        with pytest.raises(ValueError):
            Grid()


class TestSearchSpace:
    def _space(self):
        return SearchSpace(
            {
                "kind": "adaptive",  # a bare value is one option
                "scale": Grid(1.0, 4.0),
                "warmup": Grid(2, 4, 6),
            }
        )

    def test_fixed_values_pass_through(self):
        assert {c["kind"] for c in self._space().grid()} == {"adaptive"}

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
        grid = list(space.grid())
        assert len(grid) == 2  # only the explicit Grid varies
        assert all(c["final_ratio"] == (9, 1) for c in grid)
        assert all(c["ladder"] == ((2, (4, 1)), (2, (3, 1))) for c in grid)

    def test_grid_is_the_cartesian_product(self):
        space = self._space()
        grid = list(space.grid())
        assert len(grid) == 6
        assert grid[0] == {"kind": "adaptive", "scale": 1.0, "warmup": 2}
        # First parameter varies slowest.
        assert [c["scale"] for c in grid] == [1.0, 1.0, 1.0, 4.0, 4.0, 4.0]
        assert len({tuple(sorted(c.items())) for c in grid}) == 6

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace({})

