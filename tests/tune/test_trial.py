"""Tests for TrialSpec/TrialResult and the spec -> engine mapping."""

import json

import numpy as np
import pytest

from repro.core import AdaptiveSchedule, HeuristicSchedule
from repro.tune import TrialResult, TrialSpec, run_trial, spec_from_config

TINY = dict(
    model="VGG13", dataset="Cifar10", num_train=32, num_val=16,
    batch_size=16, epochs=2, lr=0.05,
)


class TestSpecFromConfig:
    def test_adaptive_thresholds_and_ratios(self):
        spec = spec_from_config(
            "t",
            {
                "kind": "adaptive",
                "thresholds": (1.0, 2.0),
                "ratios": ((8, 1), (4, 1), (1, 1)),
                "warmup_epochs": 3,
            },
        )
        schedule = spec.build_schedule()
        assert isinstance(schedule, AdaptiveSchedule)
        assert schedule.thresholds == (1.0, 2.0)
        assert schedule.ratios == ((8, 1), (4, 1), (1, 1))
        assert schedule.warmup_epochs == 3

    def test_threshold_scale_multiplies_base(self):
        spec = spec_from_config("t", {"kind": "adaptive", "threshold_scale": 4.0})
        assert spec.build_schedule().thresholds == (8.0, 20.0, 40.0)

    def test_heuristic_ladder(self):
        spec = spec_from_config(
            "t",
            {
                "kind": "heuristic",
                "warmup_epochs": 2,
                "ladder": ((3, (4, 1)),),
                "final_ratio": (2, 1),
            },
        )
        schedule = spec.build_schedule()
        assert isinstance(schedule, HeuristicSchedule)
        assert schedule.ladder == ((3, (4, 1)),)
        assert schedule.final_ratio == (2, 1)

    def test_engine_and_run_overrides(self):
        spec = spec_from_config(
            "t",
            {"kind": "adaptive", "lr": 0.5, "epochs": 7},
            seed=11,
            lr=0.01,
            model="ResNet50",
        )
        assert spec.lr == 0.5  # config overrides base
        assert spec.epochs == 7
        assert spec.model == "ResNet50"
        assert spec.seed == 11

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown search parameter"):
            spec_from_config("t", {"kind": "adaptive", "threshhold_scale": 2.0})

    def test_batched_gp_is_not_a_search_parameter(self):
        # Phase GP has one body, so a search space cannot select another.
        with pytest.raises(ValueError, match="unknown search parameter"):
            spec_from_config("t", {"kind": "adaptive", "batched_gp": True})

    def test_mismatched_schedule_keys_raise(self):
        with pytest.raises(ValueError, match="do not apply"):
            spec_from_config("t", {"kind": "heuristic", "thresholds": (1.0,)})

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            spec_from_config("t", {"kind": "bayesian"})


class TestSerialization:
    def test_spec_json_round_trip(self):
        spec = spec_from_config("t", {"kind": "adaptive"}, seed=3, **TINY)
        assert TrialSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_result_json_round_trip_is_exact(self):
        result = TrialResult(
            trial_id="t", status="ok", best_metric=1 / 3, final_metric=2 / 3,
            val_metric=[0.1, 1 / 3], gp_share=0.25, cycle_speedup=1.4142135623730951,
        )
        back = TrialResult.from_dict(json.loads(json.dumps(result.to_dict())))
        # repr-based JSON floats round-trip bit-exactly.
        assert back.deterministic_dict() == result.deterministic_dict()

    def test_failed_result_is_strict_json_and_round_trips(self):
        """NaN fields serialize as null (strict RFC-8259) and restore as
        NaN; failed results still compare equal by deterministic dict."""
        spec = spec_from_config("t", {"kind": "adaptive"}, **TINY)
        failed = TrialResult.failed(spec, ValueError("boom"))
        payload = json.dumps(failed.to_dict(), allow_nan=False)  # no NaN tokens
        back = TrialResult.from_dict(json.loads(payload))
        assert np.isnan(back.best_metric) and np.isnan(back.gp_share)
        assert back.deterministic_dict() == failed.deterministic_dict()

    def test_non_finite_series_entries_serialize_as_null(self):
        diverged = TrialResult(
            trial_id="t", status="ok", val_metric=[1.0, float("nan")],
            train_loss=[float("inf")],
        )
        data = json.loads(json.dumps(diverged.to_dict(), allow_nan=False))
        assert data["val_metric"] == [1.0, None]
        back = TrialResult.from_dict(data)
        assert back.val_metric[0] == 1.0 and np.isnan(back.val_metric[1])
        assert np.isnan(back.train_loss[0])


class TestRunTrial:
    def test_records_both_frontier_axes(self):
        spec = spec_from_config(
            "t", {"kind": "adaptive", "threshold_scale": 8.0, "warmup_epochs": 1},
            seed=5, **TINY,
        )
        result = run_trial(spec)
        assert result.status == "ok"
        assert result.epochs_run == 2
        assert len(result.val_metric) == 2
        assert 0.0 < result.gp_share < 1.0  # epoch 2 actually ran GP
        assert len(result.gp_fraction) == 2
        assert result.cycle_speedup > 1.0
        assert result.spec == spec.to_dict()

    def test_cycle_speedup_costed_at_the_trial_dataset(self):
        """The speedup axis must use the trial's dataset geometry, not
        the cycle model's ImageNet default."""
        from repro.accel import AcceleratorModel, AdaGPDesign
        from repro.core import Phase
        from repro.models import spec_for

        spec = spec_from_config(
            "t", {"kind": "adaptive", "threshold_scale": 8.0, "warmup_epochs": 1},
            seed=5, **TINY,
        )
        result = run_trial(spec)
        total = result.epochs_run * 2  # 32 samples / batch 16
        gp = round(total * result.gp_share)
        counts = {Phase.BP: total - gp, Phase.GP: gp}

        def speedup(dataset):
            cost_spec, accelerator = spec_for("VGG13", dataset), AcceleratorModel()
            base = accelerator.training_cost(cost_spec, None, counts, spec.batch_size)
            ada = accelerator.training_cost(
                cost_spec, AdaGPDesign.EFFICIENT, counts, spec.batch_size
            )
            return base.cycles / ada.cycles

        cifar, imagenet = speedup("Cifar10"), speedup("ImageNet")
        assert result.cycle_speedup == cifar != imagenet

    def test_deterministic_across_reruns(self):
        spec = spec_from_config(
            "t", {"kind": "adaptive", "warmup_epochs": 1}, seed=9, **TINY
        )
        assert run_trial(spec).deterministic_dict() == run_trial(spec).deterministic_dict()

    def test_seed_changes_the_run(self):
        base = spec_from_config("t", {"kind": "adaptive"}, seed=1, **TINY)
        other = spec_from_config("t", {"kind": "adaptive"}, seed=2, **TINY)
        assert run_trial(base).train_loss != run_trial(other).train_loss
