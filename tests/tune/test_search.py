"""Tests for the grid search driver."""

import importlib.util
import json
from pathlib import Path

from repro.tune import Grid, GridSearch, SearchSpace

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


def _example():
    path = Path(__file__).resolve().parents[2] / "examples" / "schedule_search.py"
    spec = importlib.util.spec_from_file_location("schedule_search", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOAD = {
    "model": "VGG13", "dataset": "Cifar10", "num_train": 256, "num_val": 128,
    "batch_size": 32, "epochs": 20, "lr": 0.02, "design": "ADA-GP-Efficient",
    "seed": 0,
}
PAPER_RATIOS = [[4, 1], [3, 1], [2, 1], [1, 1]]
AGGRESSIVE_RATIOS = [[8, 1], [6, 1], [4, 1], [2, 1]]


def _adaptive(index, warmup, thresholds, ratios):
    schedule = {
        "kind": "adaptive", "warmup_epochs": warmup, "thresholds": thresholds,
        "ratios": ratios,
    }
    return {"trial_id": f"adaptive-{index:03d}", "schedule": schedule, **WORKLOAD}


#: ``to_dict()`` of every trial ``examples/schedule_search.py`` runs, as
#: its journals and EXPERIMENTS.md's frontier tables record them.
PINNED_SPECS = [
    {
        "trial_id": "paper-ladder",
        "schedule": {
            "kind": "heuristic", "warmup_epochs": 6,
            "ladder": [[3, [4, 1]], [3, [3, 1]], [3, [2, 1]]],
            "final_ratio": [1, 1],
        },
        **WORKLOAD,
    },
    {
        "trial_id": "aggressive-9to1",
        "schedule": {
            "kind": "heuristic", "warmup_epochs": 2, "ladder": [],
            "final_ratio": [9, 1],
        },
        **WORKLOAD,
    },
    _adaptive(0, 4, [2.0, 5.0, 10.0], PAPER_RATIOS),
    _adaptive(1, 6, [2.0, 5.0, 10.0], PAPER_RATIOS),
    _adaptive(2, 4, [2.0, 5.0, 10.0], AGGRESSIVE_RATIOS),
    _adaptive(3, 6, [2.0, 5.0, 10.0], AGGRESSIVE_RATIOS),
    _adaptive(4, 4, [8.0, 20.0, 40.0], PAPER_RATIOS),
    _adaptive(5, 6, [8.0, 20.0, 40.0], PAPER_RATIOS),
    _adaptive(6, 4, [8.0, 20.0, 40.0], AGGRESSIVE_RATIOS),
    _adaptive(7, 6, [8.0, 20.0, 40.0], AGGRESSIVE_RATIOS),
    _adaptive(8, 4, [32.0, 80.0, 160.0], PAPER_RATIOS),
    _adaptive(9, 6, [32.0, 80.0, 160.0], PAPER_RATIOS),
    _adaptive(10, 4, [32.0, 80.0, 160.0], AGGRESSIVE_RATIOS),
    _adaptive(11, 6, [32.0, 80.0, 160.0], AGGRESSIVE_RATIOS),
]


def test_example_specs_serialise_as_pinned():
    """A journal matches trials by their spec dict, so the example's
    specs must serialise byte for byte as they always have, or old
    journals stop resuming."""
    specs = _example().search_specs("VGG13", epochs=20)
    assert [json.dumps(s.to_dict()) for s in specs] == [
        json.dumps(pinned) for pinned in PINNED_SPECS
    ]
