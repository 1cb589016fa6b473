"""Tests for the phase schedules (§3.1, §3.5)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import (
    AdaptiveSchedule,
    HeuristicSchedule,
    PAPER_RATIO_LADDER,
    Phase,
    adagp_engine,
    phase_counts,
    schedule_from_config,
)
from repro.data import synthetic_images
from repro.nn.losses import CrossEntropyLoss, accuracy


class TestHeuristicSchedule:
    def test_warmup_is_all_bp(self):
        schedule = HeuristicSchedule(warmup_epochs=3)
        for epoch in range(3):
            for batch in range(20):
                assert schedule.phase_for(epoch, batch) == Phase.WARMUP

    def test_paper_ladder_progression(self):
        """4:1 for 4 epochs, 3:1 for 4, 2:1 for 4, then 1:1 forever."""
        schedule = HeuristicSchedule(warmup_epochs=10)
        assert schedule.ratio_for_epoch(9) is None
        assert schedule.ratio_for_epoch(10) == (4, 1)
        assert schedule.ratio_for_epoch(13) == (4, 1)
        assert schedule.ratio_for_epoch(14) == (3, 1)
        assert schedule.ratio_for_epoch(18) == (2, 1)
        assert schedule.ratio_for_epoch(22) == (1, 1)
        assert schedule.ratio_for_epoch(89) == (1, 1)

    def test_gp_comes_first_within_cycle(self):
        """§3.5: 'Initially, it proceeds with Phase GP ... for k batches'."""
        schedule = HeuristicSchedule(warmup_epochs=0)
        phases = [schedule.phase_for(0, b) for b in range(5)]
        assert phases == [Phase.GP] * 4 + [Phase.BP]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            HeuristicSchedule().ratio_for_epoch(-1)

    def test_paper_training_mix_gives_47_percent_gp(self):
        """Over 90 epochs with L=10 the GP share is ~47.6%, which is what
        makes the headline ~1.47x speedup arithmetic work."""
        schedule = HeuristicSchedule(warmup_epochs=10)
        counts = phase_counts(schedule, 90, 100)
        total = sum(counts.values())
        gp_share = counts[Phase.GP] / total
        assert 0.45 < gp_share < 0.50

    @given(
        warmup=st.integers(0, 5),
        epochs=st.integers(1, 30),
        batches=st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_partition_all_batches(self, warmup, epochs, batches):
        schedule = HeuristicSchedule(warmup_epochs=warmup)
        counts = phase_counts(schedule, epochs, batches)
        assert sum(counts.values()) == epochs * batches

    @given(epoch=st.integers(0, 40), batch=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_ratio_holds_within_every_cycle(self, epoch, batch):
        schedule = HeuristicSchedule(warmup_epochs=2)
        ratio = schedule.ratio_for_epoch(epoch)
        if ratio is None:
            assert schedule.phase_for(epoch, batch) == Phase.WARMUP
            return
        k, m = ratio
        phase = schedule.phase_for(epoch, batch)
        expected = Phase.GP if (batch % (k + m)) < k else Phase.BP
        assert phase == expected


class TestAdaptiveSchedule:
    def test_warmup_respected(self):
        schedule = AdaptiveSchedule(warmup_epochs=2)
        assert schedule.phase_for(0, 0) == Phase.WARMUP
        assert schedule.phase_for(1, 5) == Phase.WARMUP

    def test_good_predictor_earns_more_gp(self):
        schedule = AdaptiveSchedule(warmup_epochs=0)
        schedule.observe_mape(0.5)
        assert schedule.ratio_for_epoch(1) == (4, 1)

    def test_bad_predictor_falls_back_to_one_to_one(self):
        schedule = AdaptiveSchedule(warmup_epochs=0)
        for _ in range(10):
            schedule.observe_mape(80.0)
        assert schedule.ratio_for_epoch(1) == (1, 1)

    def test_smoothing_blends_observations(self):
        schedule = AdaptiveSchedule(warmup_epochs=0)
        schedule.observe_mape(100.0)
        for _ in range(30):
            schedule.observe_mape(1.0)
        assert schedule.ratio_for_epoch(1) == (4, 1)

    def test_mismatched_ratios_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveSchedule(thresholds=(1.0,), ratios=((4, 1),))

    def test_no_observation_yet_takes_the_last_ratio(self):
        """Before any MAPE arrives the controller has earned nothing."""
        assert AdaptiveSchedule(warmup_epochs=0).ratio_for_epoch(0) == (1, 1)


def test_paper_ladder_constant_matches_paper():
    assert PAPER_RATIO_LADDER == ((4, (4, 1)), (4, (3, 1)), (4, (2, 1)))


class TestConfigRoundTrip:
    def test_heuristic_round_trips_through_json(self):
        schedule = HeuristicSchedule(
            warmup_epochs=3, ladder=((2, (4, 1)), (1, (3, 1))), final_ratio=(2, 1)
        )
        config = json.loads(json.dumps(schedule.to_config()))
        assert schedule_from_config(config) == schedule

    def test_adaptive_round_trips_through_json(self):
        schedule = AdaptiveSchedule(
            warmup_epochs=2, thresholds=(1.5, 4.0), ratios=((8, 1), (4, 1), (1, 1))
        )
        config = json.loads(json.dumps(schedule.to_config()))
        rebuilt = schedule_from_config(config)
        assert rebuilt.warmup_epochs == 2
        assert rebuilt.thresholds == (1.5, 4.0)
        assert rebuilt.ratios == ((8, 1), (4, 1), (1, 1))
        # Tuples restored, not lists: phase logic indexes and compares.
        assert isinstance(rebuilt.ratios[0], tuple)

    def test_config_excludes_observed_state(self):
        schedule = AdaptiveSchedule()
        schedule.observe_mape(3.0)
        rebuilt = schedule_from_config(schedule.to_config())
        assert rebuilt._recent_mape == float("inf")

    def test_kind_dispatch_errors(self):
        with pytest.raises(ValueError, match="kind"):
            schedule_from_config({"warmup_epochs": 2})
        with pytest.raises(ValueError, match="unknown schedule kind"):
            schedule_from_config({"kind": "bayesian"})
        with pytest.raises(ValueError):
            HeuristicSchedule.from_config({"kind": "adaptive"})


class TestStateDict:
    def test_adaptive_state_round_trip_is_exact(self):
        schedule = AdaptiveSchedule()
        for mape in (12.0, 3.7, 2.2):
            schedule.observe_mape(mape)
        rebuilt = AdaptiveSchedule()
        rebuilt.load_state_dict(schedule.state_dict())
        assert rebuilt._recent_mape == schedule._recent_mape  # bitwise

    def test_heuristic_state_is_empty(self):
        schedule = HeuristicSchedule()
        assert schedule.state_dict() == {}
        schedule.load_state_dict({})
        with pytest.raises(ValueError):
            schedule.load_state_dict({"_recent_mape": 1.0})


class TestScheduleCheckpointResume:
    """Satellite regression: the smoothed ``_recent_mape`` must survive
    an engine checkpoint/resume bit-identically, so a resumed adaptive
    run earns exactly the ratios the uninterrupted run would."""

    def _engine(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(4, 3, rng=rng),
        )
        return adagp_engine(
            model,
            CrossEntropyLoss(),
            lr=0.05,
            metric_fn=accuracy,
            schedule=AdaptiveSchedule(warmup_epochs=1, thresholds=(1e9, 2e9, 3e9)),
        )

    def _fit(self, engine, split, epochs):
        return engine.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(1)),
            lambda: split.val.batches(24, shuffle=False),
            epochs=epochs,
        )

    def test_recent_mape_survives_checkpoint_resume(self, tmp_path):
        split = synthetic_images(3, 48, 24, image_size=8, seed=0)
        path = str(tmp_path / "ckpt.pkl")

        straight = self._engine()
        self._fit(straight, split, 4)

        interrupted = self._engine()
        self._fit(interrupted, split, 2)
        observed = interrupted.schedule._recent_mape
        assert np.isfinite(observed)  # warm-up trained the predictor
        interrupted.save_checkpoint(path)

        resumed = self._engine()
        resumed.load_checkpoint(path)
        assert resumed.schedule._recent_mape == observed  # bitwise
        self._fit(resumed, split, 2)

        assert resumed.schedule._recent_mape == straight.schedule._recent_mape
        assert resumed.history.train_loss == straight.history.train_loss
        assert resumed.history.val_metric == straight.history.val_metric
        assert resumed.history.gp_batches == straight.history.gp_batches
        assert resumed.history.gp_fraction == straight.history.gp_fraction

