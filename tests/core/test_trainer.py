"""Tests for the BP and ADA-GP engines (§3.3, §3.4)."""

import numpy as np
import pytest

from repro import nn
from repro.core import HeuristicSchedule, Phase, adagp_engine, bp_engine
from repro.data import synthetic_images
from repro.nn.losses import CrossEntropyLoss, accuracy

RNG = np.random.default_rng(31)


def _tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 3, rng=rng),
    )


def _tiny_split(seed=0):
    return synthetic_images(3, 48, 24, image_size=8, seed=seed)


class TestBPTrainer:
    def test_single_batch_reduces_loss_over_steps(self):
        model = _tiny_model()
        engine = bp_engine(model, CrossEntropyLoss(), lr=0.05)
        x = RNG.standard_normal((16, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 16)
        first = engine.train_batch(x, y).loss
        for _ in range(30):
            last = engine.train_batch(x, y).loss
        assert last < first

    def test_fit_records_history(self):
        split = _tiny_split()
        engine = bp_engine(
            _tiny_model(), CrossEntropyLoss(), lr=0.05, metric_fn=accuracy
        )
        history = engine.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(0)),
            lambda: split.val.batches(24, shuffle=False),
            epochs=3,
        )
        assert history.num_epochs == 3
        assert all(np.isfinite(v) for v in history.val_metric)

    def test_evaluate_does_not_change_weights(self):
        split = _tiny_split()
        engine = bp_engine(_tiny_model(), CrossEntropyLoss(), metric_fn=accuracy)
        before = engine.model.state_dict()
        engine.evaluate(split.val.batches(24, shuffle=False))
        after = engine.model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_empty_epoch_rejected(self):
        engine = bp_engine(_tiny_model(), CrossEntropyLoss())
        with pytest.raises(ValueError):
            engine.train_epoch([])


class TestAdaGPTrainer:
    def _engine(self, schedule=None, seed=0, **kwargs):
        return adagp_engine(
            _tiny_model(seed),
            CrossEntropyLoss(),
            lr=0.05,
            metric_fn=accuracy,
            schedule=schedule
            or HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
            **kwargs,
        )

    def test_requires_predictable_layers(self):
        with pytest.raises(ValueError):
            adagp_engine(nn.Sequential(nn.ReLU()), CrossEntropyLoss())

    def test_gp_batch_skips_backward_but_updates_weights(self):
        engine = self._engine()
        x = RNG.standard_normal((8, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 8)
        engine.train_batch(x, y, Phase.BP)  # give predictor a scale estimate
        before = {
            name: p.data.copy() for name, p in engine.model.named_parameters()
        }
        engine.optimizer.zero_grad()
        engine.train_batch(x, y, Phase.GP)
        # No gradients were accumulated (backprop skipped)...
        conv = engine.layers[0]
        assert conv.weight.grad is None
        # ...yet predictable weights moved (predicted updates applied).
        changed = any(
            not np.array_equal(before[name], p.data)
            for name, p in engine.model.named_parameters()
            if name.endswith("weight")
        )
        assert changed

    def test_gp_hooks_are_removed_after_batch(self):
        engine = self._engine()
        x = RNG.standard_normal((4, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 4)
        engine.train_batch(x, y, Phase.GP)
        assert all(layer.forward_hook is None for layer in engine.layers)

    def test_bp_batch_trains_predictor(self):
        engine = self._engine()
        x = RNG.standard_normal((8, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 8)
        params_before = [
            p.data.copy() for p in engine.predictor.network.parameters()
        ]
        engine.train_batch(x, y, Phase.BP)
        params_after = list(engine.predictor.network.parameters())
        moved = any(
            not np.array_equal(b, a.data)
            for b, a in zip(params_before, params_after)
        )
        assert moved

    def test_epoch_phase_accounting(self):
        split = _tiny_split()
        engine = self._engine(
            schedule=HeuristicSchedule(warmup_epochs=0, ladder=((10, (2, 1)),))
        )
        stats = engine.train_epoch(
            split.train.batches(16, rng=np.random.default_rng(0)), epoch=0
        )
        counts = stats.counts
        assert counts[Phase.GP] == 2
        assert counts[Phase.BP] == 1

    def test_fit_collects_predictor_errors(self):
        split = _tiny_split()
        engine = self._engine()
        history = engine.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(0)),
            lambda: split.val.batches(24, shuffle=False),
            epochs=2,
        )
        assert len(history.predictor_mape) == 2
        assert len(history.predictor_mape[0]) == 3  # three predictable layers
        assert history.gp_batches[0] == 0  # warm-up epoch
        assert history.gp_batches[1] > 0

    def test_gp_optimizer_used_for_predicted_updates(self):
        gp_moves = []

        class SpyOptimizer(nn.SGD):
            def apply_gradients(self, updates):
                gp_moves.extend(param for param, _ in updates)
                super().apply_gradients(updates)

        model = _tiny_model()
        engine = adagp_engine(
            model,
            CrossEntropyLoss(),
            lr=0.05,
            gp_optimizer=SpyOptimizer(model.parameters(), lr=0.01),
            schedule=HeuristicSchedule(warmup_epochs=0),
        )
        x = RNG.standard_normal((4, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 4)
        engine.train_batch(x, y, Phase.GP)
        # weight + bias for each of the three predictable layers
        assert len(gp_moves) == 6

    def test_adaptive_schedule_receives_mape(self):
        from repro.core import AdaptiveSchedule

        schedule = AdaptiveSchedule(warmup_epochs=0)
        model = _tiny_model()
        engine = adagp_engine(
            model, CrossEntropyLoss(), lr=0.05, schedule=schedule
        )
        x = RNG.standard_normal((4, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 4)
        engine.train_batch(x, y, Phase.BP)
        assert schedule._recent_mape != float("inf")

    def test_evaluate_runs_without_hooks(self):
        split = _tiny_split()
        engine = self._engine()
        loss, metric = engine.evaluate(split.val.batches(24, shuffle=False))
        assert np.isfinite(loss)
        assert np.isfinite(metric)


class TestBpVsAdaGpIntegration:
    def test_adagp_matches_bp_accuracy_on_easy_task(self):
        """The Table 1 claim at micro scale: ADA-GP lands near BP.

        The batch size is chosen so every post-warm-up epoch still
        contains BP batches (k=2, m=1 over 12 batches/epoch); with only
        a handful of batches per epoch a 4:1 ratio would leave whole
        epochs without a single true-gradient step.
        """
        split = synthetic_images(3, 96, 48, image_size=8, noise=0.3, seed=7)

        def fit(use_adagp):
            model = _tiny_model(seed=3)
            if use_adagp:
                engine = adagp_engine(
                    model, CrossEntropyLoss(), lr=0.05, metric_fn=accuracy,
                    schedule=HeuristicSchedule(
                        warmup_epochs=4, ladder=((4, (2, 1)),), final_ratio=(1, 1)
                    ),
                )
            else:
                engine = bp_engine(
                    model, CrossEntropyLoss(), lr=0.05, metric_fn=accuracy
                )
            history = engine.fit(
                lambda: split.train.batches(8, rng=np.random.default_rng(1)),
                lambda: split.val.batches(48, shuffle=False),
                epochs=14,
            )
            return history.best_metric

        bp = fit(False)
        ada = fit(True)
        # Qualitative smoke bound: both learn far beyond the 33% chance
        # level.  The quantitative parity claim is exercised at proper
        # mini scale by the Table 1 experiment (see EXPERIMENTS.md).
        assert bp > 80.0
        assert ada > 60.0
