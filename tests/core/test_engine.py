"""Tests for the unified TrainingEngine: strategies, callbacks,
checkpoint/resume, adaptive scheduling, and the History count fix."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    AdaptiveSchedule,
    BackpropStrategy,
    Callback,
    Checkpointing,
    EarlyStopping,
    HeuristicSchedule,
    Phase,
    ThroughputTimer,
    TrainingEngine,
    adagp_engine,
    bp_engine,
    pipeline_adagp_engine,
)
from repro.data import synthetic_images
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy

RNG = np.random.default_rng(53)
FACTORIES = (bp_engine, adagp_engine, pipeline_adagp_engine)
FACTORY_IDS = ("bp", "adagp", "pipeline_adagp")


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


def _train_fn(split, batch=16, seed=1):
    return lambda: split.train.batches(batch, rng=np.random.default_rng(seed))


def _val_fn(split):
    return lambda: split.val.batches(24, shuffle=False)


class _NeverImproves(EarlyStopping):
    """Counts every epoch after the first as a bad one, so a fit stops
    after ``patience + 2`` epochs whatever the losses do."""

    def _is_better(self, value):
        return self.best is None


def _adagp(seed=0, schedule=None, **kwargs):
    return adagp_engine(
        _tiny_model(seed),
        CrossEntropyLoss(),
        lr=0.05,
        metric_fn=accuracy,
        schedule=schedule
        or HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
        **kwargs,
    )


class TestUnification:
    """All three training modes run through one TrainingEngine."""

    def test_every_trainer_shim_wraps_an_engine(self):
        model_args = (CrossEntropyLoss(),)
        for engine in (
            bp_engine(_tiny_model(), *model_args),
            adagp_engine(_tiny_model(), *model_args),
            pipeline_adagp_engine(_tiny_model(), *model_args),
        ):
            assert isinstance(engine, TrainingEngine)

    def test_factories_share_the_fit_loop(self):
        engines = [
            bp_engine(_tiny_model(), CrossEntropyLoss()),
            adagp_engine(_tiny_model(), CrossEntropyLoss()),
            pipeline_adagp_engine(_tiny_model(), CrossEntropyLoss()),
        ]
        assert all(type(e).fit is TrainingEngine.fit for e in engines)

    def test_bp_history_records_true_batch_counts(self):
        """The old BPTrainer appended a -1 sentinel; the engine records
        the real number of true-gradient batches per epoch."""
        split = _tiny_split()
        engine = bp_engine(
            _tiny_model(), CrossEntropyLoss(), lr=0.05, metric_fn=accuracy
        )
        history = engine.fit(_train_fn(split), _val_fn(split), epochs=2)
        assert history.bp_batches == [3, 3]  # 48 samples / batch 16
        assert history.gp_batches == [0, 0]

    def test_bp_trainer_shim_inherits_true_counts(self):
        split = _tiny_split()
        engine = bp_engine(_tiny_model(), CrossEntropyLoss(), lr=0.05)
        history = engine.fit(_train_fn(split), _val_fn(split), epochs=2)
        assert all(count >= 0 for count in history.bp_batches)
        assert history.bp_batches == [3, 3]

    def test_missing_phase_strategy_is_an_error(self):
        model = _tiny_model()
        engine = TrainingEngine(
            model,
            CrossEntropyLoss(),
            nn.SGD(model.parameters(), lr=0.01),
            strategies={Phase.BP: BackpropStrategy()},
            schedule=HeuristicSchedule(warmup_epochs=0),
        )
        x = RNG.standard_normal((4, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 4)
        with pytest.raises(KeyError):
            engine.train_epoch([(x, y)], epoch=0)  # schedule emits GP first

    def test_empty_epoch_rejected(self):
        engine = bp_engine(_tiny_model(), CrossEntropyLoss())
        with pytest.raises(ValueError):
            engine.train_epoch([])

    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_empty_evaluation_rejected(self, factory):
        """No batches is an error, not a nan handed to ReduceLROnPlateau."""
        model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
        engine = factory(model, CrossEntropyLoss())
        with pytest.raises(ValueError, match="evaluate received no batches"):
            engine.evaluate([])
        assert engine.model.training

    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_failed_evaluation_restores_train_mode(self, factory):
        model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
        engine = factory(model, CrossEntropyLoss())
        wrong_channels = np.zeros((2, 5, 16, 16), dtype=np.float32)
        with pytest.raises(ValueError):
            engine.evaluate([(wrong_channels, np.zeros(2, dtype=np.int64))])
        assert engine.model.training

    def test_fit_rejects_empty_validation(self):
        """fit stops on an empty validation set before the plateau
        scheduler could see a nan loss, and leaves the lr untouched."""
        split = _tiny_split()
        engine = bp_engine(_tiny_model(), CrossEntropyLoss(), lr=0.05)
        with pytest.raises(ValueError, match="evaluate received no batches"):
            engine.fit(_train_fn(split), lambda: iter(()), epochs=1)
        assert engine.optimizer.lr == 0.05
        assert engine.lr_scheduler.best is None

    def test_predictor_lr_decays_at_epochs_20_and_40(self):
        """adagp_engine's predictor schedule is fixed at the paper's
        milestones; no factory keyword moves them."""
        engine = _adagp()
        scheduler = engine.predictor_scheduler
        drops = []
        for _ in range(45):
            lr = engine.predictor.optimizer.lr
            scheduler.step()
            if engine.predictor.optimizer.lr < lr:
                drops.append(scheduler.last_epoch)
        assert drops == [20, 40]


class TestCallbacks:
    def test_event_order_and_payloads(self):
        split = _tiny_split()
        events = []

        class Recorder(Callback):
            def on_fit_begin(self, engine, epochs):
                events.append(("fit_begin", epochs))

            def on_epoch_begin(self, engine, epoch):
                events.append(("epoch_begin", epoch))

            def on_batch_begin(self, engine, epoch, batch_index, phase):
                events.append(("batch_begin", epoch, batch_index, phase))

            def on_batch_end(self, engine, epoch, batch_index, result):
                events.append(("batch_end", epoch, batch_index, result.phase))

            def on_epoch_end(self, engine, epoch, logs):
                events.append(("epoch_end", epoch, sorted(logs)))

            def on_fit_end(self, engine):
                events.append(("fit_end",))

        engine = bp_engine(
            _tiny_model(), CrossEntropyLoss(), lr=0.05, callbacks=(Recorder(),)
        )
        engine.fit(_train_fn(split), _val_fn(split), epochs=1)
        kinds = [e[0] for e in events]
        assert kinds == [
            "fit_begin",
            "epoch_begin",
            "batch_begin", "batch_end",
            "batch_begin", "batch_end",
            "batch_begin", "batch_end",
            "epoch_end",
            "fit_end",
        ]
        assert events[0] == ("fit_begin", 1)
        assert events[2] == ("batch_begin", 0, 0, Phase.BP)
        logs_keys = events[-2][2]
        assert logs_keys == ["counts", "epoch", "train_loss", "val_loss", "val_metric"]

    def test_early_stopping_halts_fit(self):
        split = _tiny_split()
        stopper = _NeverImproves(monitor="val_loss", patience=0)
        engine = bp_engine(
            _tiny_model(), CrossEntropyLoss(), lr=0.05, callbacks=(stopper,)
        )
        history = engine.fit(_train_fn(split), _val_fn(split), epochs=10)
        # Epoch 2 can never improve on epoch 1.
        assert history.num_epochs == 2
        assert stopper.stopped_epoch == 1

    def test_early_stopping_improves_only_on_a_strictly_lower_loss(self):
        stopper = EarlyStopping(monitor="train_loss")
        assert stopper._is_better(1.0)
        stopper.best = 1.0
        assert stopper._is_better(0.5)
        assert not stopper._is_better(1.0)

    def test_early_stopping_monitor_must_be_a_loss(self):
        with pytest.raises(ValueError, match="must name a loss"):
            EarlyStopping(monitor="val_metric")

    def test_early_stopping_unknown_monitor_rejected(self):
        split = _tiny_split()
        engine = bp_engine(
            _tiny_model(),
            CrossEntropyLoss(),
            callbacks=(EarlyStopping(monitor="nope_loss"),),
        )
        with pytest.raises(KeyError):
            engine.fit(_train_fn(split), _val_fn(split), epochs=1)

    def test_throughput_timer_counts_match_history(self):
        split = _tiny_split()
        timer = ThroughputTimer()
        engine = _adagp(
            schedule=HeuristicSchedule(warmup_epochs=0, ladder=((10, (2, 1)),)),
            callbacks=(timer,),
        )
        history = engine.fit(_train_fn(split), _val_fn(split), epochs=2)
        assert timer.batches[Phase.GP] == sum(history.gp_batches)
        assert timer.batches[Phase.BP] == sum(history.bp_batches)
        assert timer.batches_per_second(Phase.GP) > 0
        assert "batches/s" in timer.summary()

    def test_throughput_timer_snapshot_and_summary_format(self):
        """The timer formats itself; logs parse the line, the experiment
        runner and the bench records read the dict."""
        timer = ThroughputTimer()
        assert timer.snapshot() == {}
        assert timer.summary() == "throughput — no batches"
        timer.batches[Phase.BP], timer.worker_batches[Phase.BP] = 3, 6
        timer.seconds[Phase.BP] = 1.5
        timer.batches[Phase.GP] = timer.worker_batches[Phase.GP] = 4
        assert timer.snapshot() == {
            "bp": {
                "batches": 3,
                "worker_batches": 6,
                "seconds": 1.5,
                "batches_per_second": 2.0,
                "worker_batches_per_second": 4.0,
            },
            "gp": {
                "batches": 4,
                "worker_batches": 4,
                "seconds": 0.0,
                "batches_per_second": None,
                "worker_batches_per_second": None,
            },
        }
        assert timer.summary() == (
            "throughput — bp: 2.00 batches/s (3 batches) "
            "[6 worker shards, 4.00/s]; gp: nan batches/s (4 batches)"
        )

    def test_checkpointing_callback_saves_per_epoch(self, tmp_path):
        split = _tiny_split()
        target = str(tmp_path / "ckpt-{epoch}.pkl")
        engine = bp_engine(
            _tiny_model(),
            CrossEntropyLoss(),
            lr=0.05,
            callbacks=(Checkpointing(target),),
        )
        engine.fit(_train_fn(split), _val_fn(split), epochs=2)
        assert (tmp_path / "ckpt-0.pkl").exists()
        assert (tmp_path / "ckpt-1.pkl").exists()


class TestCheckpointResume:
    """Checkpoint -> resume reproduces the uninterrupted History exactly."""

    def _histories_equal(self, a, b):
        assert a.train_loss == b.train_loss
        assert a.val_loss == b.val_loss
        assert a.val_metric == b.val_metric
        assert a.bp_batches == b.bp_batches
        assert a.gp_batches == b.gp_batches
        assert a.predictor_mse == b.predictor_mse
        assert a.predictor_mape == b.predictor_mape

    @pytest.mark.parametrize("builder", ["bp", "adagp", "adaptive"])
    def test_round_trip_reproduces_history(self, builder, tmp_path):
        split = _tiny_split()

        def build():
            if builder == "bp":
                return bp_engine(
                    _tiny_model(), CrossEntropyLoss(), lr=0.05, metric_fn=accuracy
                )
            if builder == "adagp":
                return _adagp()
            return _adagp(schedule=AdaptiveSchedule(warmup_epochs=1))

        train_fn, val_fn = _train_fn(split), _val_fn(split)

        uninterrupted = build().fit(train_fn, val_fn, epochs=4)

        path = str(tmp_path / "ckpt.pkl")
        first_half = build()
        first_half.fit(train_fn, val_fn, epochs=2)
        first_half.save_checkpoint(path)

        resumed = build()
        resumed.load_checkpoint(path)
        assert resumed.current_epoch == 2
        history = resumed.fit(train_fn, val_fn, epochs=2)

        self._histories_equal(history, uninterrupted)

    def test_state_dict_round_trip_in_memory(self):
        split = _tiny_split()
        engine = _adagp()
        engine.fit(_train_fn(split), _val_fn(split), epochs=2)
        state = engine.state_dict()
        fresh = _adagp()
        fresh.load_state_dict(state)
        assert fresh.current_epoch == engine.current_epoch
        for key, value in engine.model.state_dict().items():
            np.testing.assert_array_equal(fresh.model.state_dict()[key], value)
        # Predictor scales were re-keyed onto the new engine's layers.
        assert engine.predictor.scales_state(engine.layers)
        assert fresh.predictor.scales_state(
            fresh.layers
        ) == engine.predictor.scales_state(engine.layers)

    def test_mismatched_checkpoint_rejected(self):
        engine = _adagp()
        state = engine.state_dict()
        bp = bp_engine(_tiny_model(), CrossEntropyLoss())
        with pytest.raises(ValueError):
            bp.load_state_dict(state)

    def test_early_stopping_state_survives_resume(self):
        """A resumed run stops at the same epoch as the uninterrupted
        one: the patience counter is checkpointed with the engine."""
        split = _tiny_split()

        def build():
            stopper = _NeverImproves(monitor="val_loss", patience=1)
            engine = bp_engine(
                _tiny_model(),
                CrossEntropyLoss(),
                lr=0.05,
                metric_fn=accuracy,
                callbacks=(stopper,),
            )
            return engine, stopper

        train_fn, val_fn = _train_fn(split), _val_fn(split)

        full_engine, _ = build()
        uninterrupted = full_engine.fit(train_fn, val_fn, epochs=10)
        assert uninterrupted.num_epochs == 3  # best @0, bad @1, bad @2 -> stop

        part_engine, part_stopper = build()
        part_engine.fit(train_fn, val_fn, epochs=2)
        assert part_stopper.num_bad_epochs == 1
        state = part_engine.state_dict()

        resumed_engine, resumed_stopper = build()
        resumed_engine.load_state_dict(state)
        assert resumed_stopper.num_bad_epochs == 1
        resumed = resumed_engine.fit(train_fn, val_fn, epochs=8)
        assert resumed.num_epochs == 3
        self._histories_equal(resumed, uninterrupted)

    @pytest.mark.parametrize("order", ["checkpoint_first", "checkpoint_last"])
    @pytest.mark.parametrize("builder", ["bp", "adagp", "adaptive", "pipeline_adagp"])
    def test_checkpoint_carries_the_stoppers_verdict(self, builder, order, tmp_path):
        """Wherever Checkpointing sits relative to EarlyStopping, it saves
        the stopper's state after the epoch it closes, so a run resumed
        from its file stops on the straight run's epoch."""
        split = _tiny_split()
        pattern = str(tmp_path / "ckpt-{epoch}.pkl")

        def build():
            stopper = _NeverImproves(monitor="val_loss", patience=1)
            callbacks = (Checkpointing(pattern), stopper)
            if order == "checkpoint_last":
                callbacks = callbacks[::-1]
            if builder == "bp":
                engine = bp_engine(
                    _tiny_model(),
                    CrossEntropyLoss(),
                    lr=0.05,
                    metric_fn=accuracy,
                    callbacks=callbacks,
                )
            elif builder == "adagp":
                engine = _adagp(callbacks=callbacks)
            elif builder == "adaptive":
                engine = _adagp(
                    schedule=AdaptiveSchedule(warmup_epochs=1), callbacks=callbacks
                )
            else:
                engine = pipeline_adagp_engine(
                    _tiny_model(),
                    CrossEntropyLoss(),
                    lr=0.05,
                    metric_fn=accuracy,
                    schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
                    callbacks=callbacks,
                )
            return engine, stopper

        train_fn, val_fn = _train_fn(split), _val_fn(split)

        straight_engine, straight_stopper = build()
        straight = straight_engine.fit(train_fn, val_fn, epochs=10)
        assert straight.num_epochs == 3  # best @0, bad @1, bad @2 -> stop
        assert straight_stopper.stopped_epoch == 2

        resumed_engine, resumed_stopper = build()
        resumed_engine.load_checkpoint(pattern.format(epoch=1))
        assert resumed_stopper.num_bad_epochs == 1
        resumed = resumed_engine.fit(train_fn, val_fn, epochs=8)
        assert resumed_stopper.stopped_epoch == 2
        self._histories_equal(resumed, straight)

    def test_callback_count_mismatch_rejected(self):
        engine = bp_engine(
            _tiny_model(), CrossEntropyLoss(), callbacks=(ThroughputTimer(),)
        )
        state = engine.state_dict()
        bare = bp_engine(_tiny_model(), CrossEntropyLoss())
        with pytest.raises(ValueError):
            bare.load_state_dict(state)


class TestAdaptiveScheduleUnderEngine:
    def test_mape_observed_through_bp_batches(self):
        schedule = AdaptiveSchedule(warmup_epochs=0)
        engine = _adagp(schedule=schedule)
        x = RNG.standard_normal((8, 3, 8, 8)).astype(np.float32)
        y = RNG.integers(0, 3, 8)
        engine.train_batch(x, y, Phase.BP)
        assert schedule._recent_mape != float("inf")

    def test_ratio_transitions_drive_phase_mix(self):
        """Better observed predictor quality earns more GP batches."""
        split = _tiny_split()
        schedule = AdaptiveSchedule(warmup_epochs=0)
        engine = _adagp(schedule=schedule)
        train = list(split.train.batches(16, rng=np.random.default_rng(1)))

        schedule._recent_mape = 100.0  # terrible quality -> 1:1
        worst = engine.train_epoch(train, epoch=0)
        assert schedule.ratio_for_epoch(0) == (1, 1)

        schedule._recent_mape = 1.0  # excellent quality -> 4:1
        # A 3-batch epoch at 4:1 runs GP on every batch; quality is only
        # re-observed on BP batches, so the pinned value stays in force.
        best = engine.train_epoch(train, epoch=1)
        assert schedule.ratio_for_epoch(1) == (4, 1)
        assert best.counts[Phase.GP] > worst.counts[Phase.GP]

    def test_warmup_epochs_still_respected(self):
        split = _tiny_split()
        engine = _adagp(schedule=AdaptiveSchedule(warmup_epochs=2))
        history = engine.fit(_train_fn(split), _val_fn(split), epochs=2)
        assert history.gp_batches == [0, 0]


class TestHistoryGPShare:
    """History owns the GP-share arithmetic callers used to hand-roll."""

    def test_gp_share_and_fraction_recorded(self):
        split = _tiny_split()
        engine = _adagp()  # warm-up 1 epoch, then 2:1
        history = engine.fit(_train_fn(split), _val_fn(split), epochs=2)
        assert history.gp_fraction == [0.0, 2 / 3]  # 3 batches at 2:1
        expected = sum(history.gp_batches) / (
            sum(history.gp_batches) + sum(history.bp_batches)
        )
        assert history.gp_share == expected > 0.0

    def test_plain_bp_share_is_zero(self):
        split = _tiny_split()
        engine = bp_engine(
            _tiny_model(), CrossEntropyLoss(), lr=0.05, metric_fn=accuracy
        )
        history = engine.fit(_train_fn(split), _val_fn(split), epochs=1)
        assert history.gp_share == 0.0
        assert history.gp_fraction == [0.0]

    def test_empty_history_raises(self):
        from repro.core import History

        with pytest.raises(ValueError):
            History().gp_share

    def test_layer_series_rejects_an_unknown_kind(self):
        """``"MAPE"`` / ``"cosine"`` used to fall through to the MSE
        series silently."""
        from repro.core import History

        history = History()
        history.predictor_mape.append({0: 5.0})
        history.predictor_mse.append({0: 0.1})
        assert history.layer_series(0, "mape") == [5.0]
        assert history.layer_series(0, "mse") == [0.1]
        with pytest.raises(ValueError, match="'mape' or 'mse'"):
            history.layer_series(0, "MAPE")

    def test_old_pickles_backfill_missing_fields(self):
        """A History pickled before gp_fraction existed must restore
        with the field defaulted, not AttributeError on first append."""
        from repro.core import History

        history = History()
        history.train_loss.append(0.5)
        history.bp_batches.append(3)
        history.gp_batches.append(1)
        state = history.__dict__.copy()
        del state["gp_fraction"]  # simulate the pre-field pickle payload
        restored = History()
        restored.__setstate__(state)
        assert restored.gp_fraction == []
        assert restored.gp_share == 0.25
