"""End-to-end observability: the ISSUE 10 acceptance criteria, on one
ledger.

One adagp run with ``TracingCallback`` + ``MetricsCallback`` attached
must produce (a) a trace whose per-phase span totals reconcile with
``ThroughputTimer`` within 1%, (b) a metrics snapshot whose comm
counters equal ``CommStats`` exactly under W=2 DDP, and (c) chaos runs
whose fault/retry/rebuild increments match the ledger.  Plus: pipeline
spans rebuild a Timeline identical to the executor's, the profiler
emits the Fig-15 phase×op table, and — the owner rule of DESIGN.md §14
— every count is read from its one monotone owner when the snapshot is
taken, so a name-resolved backend reports what an ad-hoc instance does
and no snapshot is stale.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn, obs
from repro.core import (
    AdaptiveSchedule,
    HeuristicSchedule,
    LambdaCallback,
    Phase,
    adagp_engine,
    pipeline_adagp_engine,
)
from repro.core.engine.events import ThroughputTimer
from repro.data import synthetic_images
from repro.dist import (
    ChaosTransport,
    Fault,
    ReliableTransport,
    ddp_engine,
    dp_strategy,
    shutdown,
)
from repro.models import build_mini
from repro.nn.backend import FusedBackend, native_available
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.pipeline import Task, Timeline, render_timeline


def _model(seed=0):
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


def _split():
    return synthetic_images(3, 48, 24, image_size=8, seed=0)


def _schedule():
    return HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),))


def _fit(engine, split, epochs=3):
    return engine.fit(
        lambda: split.train.batches(16, rng=np.random.default_rng(1)),
        lambda: split.val.batches(24, shuffle=False),
        epochs,
    )


class TestEngineReconciliation:
    def test_batch_span_totals_match_throughput_timer_within_1pct(self):
        """Acceptance (a): the trace and the timer measure the same
        batches through the same callback events, so their per-phase
        totals agree to within callback-dispatch skew (≪1%)."""
        tracer = obs.Tracer()
        timer = ThroughputTimer()
        engine = adagp_engine(
            _model(),
            CrossEntropyLoss(),
            lr=0.05,
            metric_fn=accuracy,
            schedule=_schedule(),
            callbacks=[timer, obs.TracingCallback(tracer)],
        )
        _fit(engine, _split())
        span_totals: dict[str, float] = {}
        for span in tracer.spans:
            if span.name == "engine.batch":
                span_totals[span.phase] = (
                    span_totals.get(span.phase, 0.0) + span.duration
                )
        timer_totals: dict[str, float] = {}
        for phase, seconds in timer.seconds.items():
            tag = obs.phase_tag(phase)
            timer_totals[tag] = timer_totals.get(tag, 0.0) + seconds
        assert set(span_totals) == {k for k, v in timer_totals.items() if v > 0}
        for tag, seconds in timer_totals.items():
            if seconds > 0:
                assert span_totals[tag] == pytest.approx(seconds, rel=0.01)

    def test_batch_counts_match_history_exactly(self):
        tracer = obs.Tracer()
        reg = obs.MetricsRegistry()
        engine = adagp_engine(
            _model(),
            CrossEntropyLoss(),
            lr=0.05,
            metric_fn=accuracy,
            schedule=_schedule(),
            callbacks=[
                ThroughputTimer(),
                obs.TracingCallback(tracer),
                obs.MetricsCallback(reg),
            ],
        )
        history = _fit(engine, _split())
        batch_spans = [s for s in tracer.spans if s.name == "engine.batch"]
        gp_spans = sum(1 for s in batch_spans if s.phase == "gp")
        bp_spans = sum(1 for s in batch_spans if s.phase == "bp")
        assert gp_spans == sum(history.gp_batches)
        assert bp_spans == sum(history.bp_batches)
        counted = reg.snapshot()["repro_engine_batches"]["series"]
        assert counted["phase=gp"] == gp_spans
        # Warm-up batches run backprop: the tracer tags them bp.
        assert counted["phase=bp"] + counted["phase=warmup"] == bp_spans
        # Every batch span closed carrying its loss.
        assert all("loss" in s.args for s in batch_spans)

    def test_eval_spans_recorded_per_epoch(self):
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            engine = adagp_engine(
                _model(),
                CrossEntropyLoss(),
                lr=0.05,
                metric_fn=accuracy,
                schedule=_schedule(),
            )
            _fit(engine, _split())
        finally:
            obs.set_tracer(previous)
        evals = [s for s in tracer.spans if s.name == "engine.evaluate"]
        assert len(evals) == 3
        assert all(s.phase == "eval" for s in evals)

    def test_predictor_spans_per_batch_and_layer(self):
        """Predictor alpha is visible: one ``predictor.train`` span per
        BP or warm-up batch, one ``predictor.predict`` span per GP batch
        (every layer in one stacked call) — and the spans leave
        backend-op attribution to the batch's phase."""
        tracer = obs.Tracer()
        reg = obs.MetricsRegistry()
        previous = obs.set_tracer(tracer)
        try:
            engine = adagp_engine(
                _model(),
                CrossEntropyLoss(),
                lr=0.05,
                schedule=_schedule(),
                backend=obs.ProfilingBackend(FusedBackend(), registry=reg),
                callbacks=[obs.TracingCallback(tracer)],
            )
            history = _fit(engine, _split())
        finally:
            obs.set_tracer(previous)
        train = [s for s in tracer.spans if s.name == "predictor.train"]
        predict = [s for s in tracer.spans if s.name == "predictor.predict"]
        assert len(train) == sum(history.bp_batches) > 0
        assert all(s.phase == obs.PREDICTOR_TRAIN for s in train)
        assert len(predict) == sum(history.gp_batches) > 0
        assert all(s.args["layers"] == len(engine.layers) for s in predict)
        assert all(s.phase == "gp" for s in predict)
        batches = [s for s in tracer.spans if s.name == "engine.batch"]
        for span in train + predict:
            assert any(b.start <= span.start <= span.end <= b.end for b in batches)
        assert set(obs.phase_op_table(reg.snapshot())) == {"bp", "gp", "eval"}


class TestDistObservability:
    @pytest.mark.parametrize("transport", ["local", "process"])
    def test_comm_counters_equal_commstats_exactly_w2(self, transport):
        """Acceptance (b): the snapshot reads CommStats.totals() itself
        — exact equality, not approximation."""
        reg = obs.MetricsRegistry()
        engine = ddp_engine(
            _model(),
            CrossEntropyLoss(),
            workers=2,
            transport=transport,
            lr=0.05,
            metric_fn=accuracy,
            schedule=_schedule(),
            callbacks=[obs.MetricsCallback(reg)],
        )
        _fit(engine, _split())
        comm = dp_strategy(engine).comm
        snap = reg.snapshot()
        totals = comm.totals()
        assert totals["grad_wire_bytes"] > 0 and totals["sync_bytes"] > 0
        for key, value in totals.items():
            assert snap[f"repro_dist_{key}"]["series"][""] == value, key
        ratio = comm.compression_ratio()
        assert snap["repro_dist_compression_ratio"]["series"][""] == ratio
        shutdown(engine)

    def test_comm_spans_on_global_tracer(self):
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            engine = ddp_engine(
                _model(),
                CrossEntropyLoss(),
                workers=2,
                transport="local",
                lr=0.05,
                metric_fn=accuracy,
                schedule=_schedule(),
            )
            _fit(engine, _split())
            shutdown(engine)
        finally:
            obs.set_tracer(previous)
        names = {s.name for s in tracer.spans if s.phase == "comm"}
        assert names >= {"dist.sync", "dist.gather", "dist.apply"}

    def test_chaos_fault_metrics_match_commstats(self):
        """PR 9 fault matrix rides through: a killed compute forces
        fault + rebuild increments, and the snapshot shows the ledger's
        exact numbers."""
        reg = obs.MetricsRegistry()
        wrapper = ChaosTransport(
            "local", faults=[Fault("kill", rank=1, op="compute", nth=1)]
        )
        engine = ddp_engine(
            _model(),
            CrossEntropyLoss(),
            workers=2,
            transport=ReliableTransport(wrapper, retry_backoff=0.0),
            lr=0.05,
            metric_fn=accuracy,
            schedule=_schedule(),
            callbacks=[obs.MetricsCallback(reg)],
        )
        _fit(engine, _split())
        comm = dp_strategy(engine).comm
        totals = comm.totals()
        assert totals["faults"] >= 1 and totals["rebuilds"] >= 1
        snap = reg.snapshot()
        for key in ("faults", "retries", "rebuilds", "recovery_s", "recovery_bytes"):
            assert snap[f"repro_dist_{key}"]["series"][""] == totals[key], key
        shutdown(engine)

    def test_recovery_spans_traced(self):
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            wrapper = ChaosTransport(
                "local", faults=[Fault("kill", rank=1, op="compute", nth=1)]
            )
            engine = ddp_engine(
                _model(),
                CrossEntropyLoss(),
                workers=2,
                transport=ReliableTransport(wrapper, retry_backoff=0.0),
                lr=0.05,
                metric_fn=accuracy,
                schedule=_schedule(),
            )
            _fit(engine, _split())
            comm = dp_strategy(engine).comm
            shutdown(engine)
        finally:
            obs.set_tracer(previous)
        rebuild_spans = [s for s in tracer.spans if s.name == "dist.rebuild"]
        assert len(rebuild_spans) == comm.totals()["rebuilds"]
        assert all(s.phase == "recovery" for s in rebuild_spans)

    def test_per_epoch_rank_merge_equals_serial_accounting(self):
        """Merging per-epoch snapshots of the comm ledger reproduces the
        all-epoch totals — the merge semantics the multi-rank story
        relies on, driven by real W=2 traffic."""
        engine = ddp_engine(
            _model(),
            CrossEntropyLoss(),
            workers=2,
            transport="local",
            lr=0.05,
            metric_fn=accuracy,
            schedule=_schedule(),
        )
        _fit(engine, _split())
        comm = dp_strategy(engine).comm
        shutdown(engine)
        parts = []
        for _epoch, row in comm.epochs.items():
            reg = obs.MetricsRegistry()
            for key, value in row.items():
                reg.counter(f"repro_dist_{key}").inc(value)
            parts.append(reg.snapshot())
        serial = obs.MetricsRegistry()
        serial.attach(comm)
        serial_snap = serial.snapshot()
        del serial_snap["repro_dist_compression_ratio"]  # gauge: not a sum
        assert obs.merge_snapshots(parts) == serial_snap


def _vgg_fit(backend, probe=None, epochs=3):
    """A 3-epoch ADA-GP fit of VGG13-mini with the full metrics stack,
    validation batches larger than training ones (so the first epoch's
    evaluate allocates and the later ones do not — the shape of traffic
    that used to drive a re-pinned counter backwards).  Counts every
    ``pool.acquire`` and native dispatch decision with wrappers and
    returns ``(wrapper counts, what the snapshot reports over the same
    window)``."""
    split = synthetic_images(10, 32, 24, image_size=16, seed=0)
    reg = obs.MetricsRegistry()
    callbacks = [ThroughputTimer(), obs.MetricsCallback(reg)]
    if probe is not None:
        callbacks.append(probe(reg))
    engine = adagp_engine(
        build_mini("VGG13", 10, rng=np.random.default_rng(1)),
        CrossEntropyLoss(),
        lr=0.05,
        metric_fn=accuracy,
        schedule=_schedule(),
        backend=backend,
        callbacks=callbacks,
    )
    backend = engine.backend
    pool = backend.pool
    # Plain attribute reads: a name-resolved singleton carries whatever
    # earlier tests in this process left on it.
    acquired_before = pool.hits + pool.misses
    dispatch_before = {
        (op, path): count
        for op, paths in getattr(backend, "dispatch_counts", {}).items()
        for path, count in paths.items()
    }
    acquires: list[tuple] = []
    dispatches: dict[tuple, int] = {}
    real_acquire = pool.acquire

    def counting_acquire(shape, dtype):
        acquires.append(shape)
        return real_acquire(shape, dtype)

    pool.acquire = counting_acquire
    real_dispatch = getattr(backend, "_dispatch", None)
    if real_dispatch is not None:

        def counting_dispatch(op, native):
            key = (op, "native" if native else "fallback")
            dispatches[key] = dispatches.get(key, 0) + 1
            return real_dispatch(op, native)

        backend._dispatch = counting_dispatch
    try:
        engine.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(1)),
            lambda: split.val.batches(24, shuffle=False),
            epochs,
        )
    finally:
        del pool.acquire
        if real_dispatch is not None:
            del backend._dispatch
    snap = reg.snapshot()
    reported_acquires = (
        snap["repro_backend_pool_hits"]["series"][""]
        + snap["repro_backend_pool_misses"]["series"][""]
        - acquired_before
    )
    reported_dispatches = {}
    for label, count in snap.get("repro_backend_dispatch", {"series": {}})[
        "series"
    ].items():
        parts = dict(part.split("=", 1) for part in label.split(","))
        key = (parts["op"], parts["path"])
        if count - dispatch_before.get(key, 0):
            reported_dispatches[key] = count - dispatch_before.get(key, 0)
    return (len(acquires), dispatches), (reported_acquires, reported_dispatches)


class TestOneLedger:
    """Every count has one monotone owner; the registry reads it when a
    snapshot is taken (DESIGN.md §14)."""

    @pytest.mark.parametrize("name", ["fused", "native"])
    def test_name_resolved_backend_counts_like_an_instance(self, name):
        """The regression: ``clear_caches`` used to zero the counters of
        registry-singleton backends after every batch, so a >= 2-epoch
        fit with ``MetricsCallback`` on ``backend="fused"`` / ``"native"``
        died with "cannot move backwards" while an ad-hoc instance
        reported everything."""
        if name == "native" and not native_available():
            pytest.skip("native backend unavailable (no C compiler)")
        counted_name, reported_name = _vgg_fit(name)
        instance = type(nn.get_backend(name))()
        counted_inst, reported_inst = _vgg_fit(instance)
        assert counted_name[0] > 0
        assert reported_name == counted_name
        assert reported_inst == counted_inst
        assert reported_name == reported_inst
        if name == "native":
            assert sum(counted_name[1].values()) > 0

    def test_mid_epoch_snapshot_is_current(self):
        """A snapshot taken inside ``on_batch_end`` of epoch 2 already
        holds epoch 2's batches (epoch-boundary re-pinning was one epoch
        stale)."""
        seen: list[tuple[int, float]] = []
        batches = itertools.count(1)

        def probe(reg):
            def on_batch_end(engine, epoch, batch_index, result):
                done = next(batches)
                if epoch == 2:
                    series = reg.snapshot()["repro_engine_batches"]["series"]
                    seen.append((done, sum(series.values())))

            return LambdaCallback(on_batch_end=on_batch_end)

        _vgg_fit(FusedBackend(), probe=probe)
        assert seen and all(batches == counted for batches, counted in seen)

    def test_untrained_adaptive_snapshot_round_trips(self, tmp_path):
        """No MAPE observed yet: the schedule reports no gauge instead
        of the ``inf`` sentinel, so the snapshot is strict JSON."""
        reg = obs.MetricsRegistry()
        callback = obs.MetricsCallback(reg)
        engine = adagp_engine(
            _model(),
            CrossEntropyLoss(),
            lr=0.05,
            schedule=AdaptiveSchedule(warmup_epochs=1),
            backend="fused",
            callbacks=[ThroughputTimer(), callback],
        )
        callback.attach(engine)
        snap = reg.snapshot()
        assert "repro_schedule_recent_mape" not in snap
        assert "repro_engine_batches" in snap
        path = tmp_path / "snap.json"
        obs.dump_snapshot(snap, path)
        assert obs.load_snapshot(path) == snap
        engine.schedule.observe_mape(7.5)
        assert reg.snapshot()["repro_schedule_recent_mape"]["series"][""] == 7.5
        with pytest.raises(ValueError):
            obs.dump_snapshot(
                {"repro_x_y": {"kind": "gauge", "series": {"": float("inf")}}}, path
            )

    def test_attaching_does_not_keep_the_engine_alive(self):
        reg = obs.MetricsRegistry()
        callback = obs.MetricsCallback(reg)
        engine = adagp_engine(
            _model(),
            CrossEntropyLoss(),
            lr=0.05,
            schedule=_schedule(),
            backend=FusedBackend(),
            callbacks=[ThroughputTimer(), callback],
        )
        callback.attach(engine)
        assert {"repro_backend_pool_hits", "repro_engine_batches"} <= set(
            reg.snapshot()
        )
        del engine
        # What the engine owned is gone with it; the fold caches belong
        # to the process-wide default pipeline and stay.
        assert {name.split("_")[1] for name in reg.snapshot()} == {"passes"}

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(["bp", "gp", "evaluate", "clear_caches", "snapshot"]),
            min_size=1,
            max_size=12,
        ),
        backend=st.sampled_from(["fused", "native"]),
    )
    def test_counters_never_move_backwards(self, ops, backend):
        """Property: whatever the interleaving of batches, evaluation,
        cache clears and snapshots, no counter series decreases."""
        if backend == "native" and not native_available():
            backend = "fused"
        reg = obs.MetricsRegistry()
        callback = obs.MetricsCallback(reg)
        engine = adagp_engine(
            _model(),
            CrossEntropyLoss(),
            lr=0.05,
            metric_fn=accuracy,
            schedule=_schedule(),
            backend=backend,
            callbacks=[callback],
        )
        callback.attach(engine)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, 4)
        snapshots = [reg.snapshot()]
        for op in ops:
            if op == "bp":
                engine.train_batch(x, y, Phase.BP)
            elif op == "gp":
                engine.train_batch(x, y, Phase.GP)
            elif op == "evaluate":
                engine.evaluate([(x, y)])
            elif op == "clear_caches":
                engine.model.clear_caches()
            else:
                snapshots.append(reg.snapshot())
        snapshots.append(reg.snapshot())
        for earlier, later in zip(snapshots, snapshots[1:]):
            for name, entry in earlier.items():
                if entry["kind"] != "counter":
                    continue
                for label, value in entry["series"].items():
                    assert later[name]["series"][label] >= value, (name, label)


def _counting_tracer():
    ticks = itertools.count()
    return obs.Tracer(clock=lambda: next(ticks) * 0.001)


class TestOneClock:
    """``ThroughputTimer`` and ``PipelineExecutor`` read the tracer's
    clock, so a counting fake makes their seconds reproducible."""

    def test_throughput_seconds_deterministic_under_counting_clock(self):
        runs = []
        for _ in range(2):
            previous = obs.set_tracer(_counting_tracer())
            try:
                timer = ThroughputTimer()
                engine = adagp_engine(
                    _model(),
                    CrossEntropyLoss(),
                    lr=0.05,
                    metric_fn=accuracy,
                    schedule=_schedule(),
                    callbacks=[timer],
                )
                _fit(engine, _split())
            finally:
                obs.set_tracer(previous)
            runs.append(timer.seconds)
        assert runs[0] == runs[1]
        assert sum(runs[0].values()) > 0

    def test_pipeline_timeline_deterministic_under_counting_clock(self):
        def batches():
            rng = np.random.default_rng(5)
            for _ in range(2):
                x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
                yield x, rng.integers(0, 10, 8)

        timelines = []
        for _ in range(2):
            previous = obs.set_tracer(_counting_tracer())
            try:
                engine = pipeline_adagp_engine(
                    build_mini("ResNet50", 10, rng=np.random.default_rng(0)),
                    CrossEntropyLoss(),
                    num_stages=2,
                    micro_batches=4,
                    schedule=_schedule(),
                    plateau_scheduler=False,
                )
                engine.fit(batches, batches, epochs=2)
            finally:
                obs.set_tracer(previous)
            live = engine.strategies[Phase.GP].executor.timeline
            timelines.append(
                [(t.device, t.start, t.end, t.kind, t.micro_batch) for t in live.tasks]
            )
        assert timelines[0] == timelines[1]
        assert timelines[0]


def _timeline_from_spans(spans):
    """Rebuild a pipeline Timeline from the executor's ``pipe.fw`` /
    ``pipe.bw`` spans: their times are the virtual device clock and
    ``track`` is the stage."""
    tasks = [
        Task(
            device=span.track,
            start=span.start,
            end=span.end,
            kind=span.name.split(".", 1)[1],
            micro_batch=span.args.get("micro", 0),
            stage=span.track,
            batch=span.args.get("batch", 0),
        )
        for span in spans
        if span.name.startswith("pipe.")
    ]
    return Timeline(sorted(tasks, key=lambda task: (task.start, task.device)))


class TestPipelineObservability:
    def test_timeline_from_spans_matches_live_timeline(self):
        """The executor records spans on the virtual device clock, so a
        Timeline rebuilt from the trace is the live one — same tasks,
        same ASCII render."""
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
            engine = pipeline_adagp_engine(
                model,
                CrossEntropyLoss(),
                num_stages=2,
                micro_batches=4,
                schedule=_schedule(),
                plateau_scheduler=False,
            )

            def batches():
                rng = np.random.default_rng(5)
                for _ in range(3):
                    x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
                    yield x, rng.integers(0, 10, 8)

            engine.fit(batches, batches, epochs=2)
        finally:
            obs.set_tracer(previous)
        live = engine.strategies[Phase.GP].executor.timeline
        pipe_spans = [s for s in tracer.spans if s.name.startswith("pipe.")]
        assert len(pipe_spans) == len(live.tasks)
        rebuilt = _timeline_from_spans(pipe_spans)
        rebuilt.validate()

        def key(task):
            return (
                task.device,
                task.start,
                task.end,
                task.kind,
                task.micro_batch,
                task.stage,
                task.batch,
            )

        assert sorted(map(key, rebuilt.tasks)) == sorted(map(key, live.tasks))
        assert render_timeline(rebuilt, 2, width=60, label_by="batch") == (
            render_timeline(live, 2, width=60, label_by="batch")
        )
        # Span phases follow the engine scope: BP batches and GP streams.
        assert {s.phase for s in pipe_spans} == {"bp", "gp"}

    def test_stage_occupancy_cross_checks_timeline(self):
        tracer = obs.Tracer()
        spans = [
            # device 0: busy 2 of [0, 4] -> 50%; device 1: busy 3 of [1, 4].
            ("pipe.fw", 0.0, 1.0, 0),
            ("pipe.bw", 3.0, 4.0, 0),
            ("pipe.fw", 1.0, 4.0, 1),
        ]
        for name, start, end, track in spans:
            tracer.record(name, obs.BP, start, end, track=track)
        occupancy = obs.stage_occupancy(tracer.spans)
        assert occupancy[0]["occupancy"] == pytest.approx(0.5)
        assert occupancy[0]["bubble"] == pytest.approx(2.0)
        assert occupancy[1]["occupancy"] == pytest.approx(1.0)
        timeline = _timeline_from_spans(tracer.spans)
        assert timeline.makespan == 4.0


class TestProfiler:
    def test_phase_op_table_covers_training_phases(self):
        """The Fig-15 breakdown: profiled backend attributes op time to
        the engine's phases."""
        reg = obs.MetricsRegistry()
        profiled = obs.ProfilingBackend(FusedBackend(), registry=reg)
        engine = adagp_engine(
            _model(),
            CrossEntropyLoss(),
            lr=0.05,
            metric_fn=accuracy,
            schedule=_schedule(),
            backend=profiled,
        )
        _fit(engine, _split())
        table = obs.phase_op_table(reg.snapshot())
        assert {"bp", "gp", "eval"} <= set(table)
        assert "conv2d_backward" in table["bp"]
        assert "conv2d_backward" not in table["gp"]  # GP skips backward
        assert "conv2d_forward" in table["gp"]
        rendered = obs.render_phase_op_table(table)
        assert "phase bp" in rendered and "conv2d_forward" in rendered

    def test_profiled_run_matches_unprofiled_losses(self):
        histories = []
        for wrap in (False, True):
            backend = FusedBackend()
            if wrap:
                backend = obs.ProfilingBackend(
                    backend, registry=obs.MetricsRegistry()
                )
            engine = adagp_engine(
                _model(),
                CrossEntropyLoss(),
                lr=0.05,
                metric_fn=accuracy,
                schedule=_schedule(),
                backend=backend,
            )
            histories.append(_fit(engine, _split()))
        assert histories[0].train_loss == histories[1].train_loss
        assert histories[0].val_loss == histories[1].val_loss

    def test_sampling_scales_counts(self):
        reg = obs.MetricsRegistry()
        clock = itertools.count(0)
        tracer = obs.Tracer(clock=lambda: next(clock) * 0.001)
        profiled = obs.ProfilingBackend(
            FusedBackend(), registry=reg, tracer=tracer, sample_every=4
        )
        x = np.random.default_rng(0).standard_normal((2, 8)).astype(np.float32)
        w = np.random.default_rng(1).standard_normal((3, 8)).astype(np.float32)
        with obs.phase_scope("bp"):
            for _ in range(8):
                profiled.linear_forward(x, w, None)
        calls = reg.counter("repro_backend_op_calls")
        # 8 calls, 2 sampled, each scaled by 4 -> unbiased total of 8.
        assert calls.value(phase="bp", op="linear_forward") == 8

    def test_conv_ctx_repinned_to_profiler(self):
        reg = obs.MetricsRegistry()
        profiled = obs.ProfilingBackend(FusedBackend(), registry=reg)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        with obs.phase_scope("bp"):
            out, ctx = profiled.conv2d_forward(x, w, None, 1, 1)
            assert ctx.backend is profiled
            profiled.conv2d_backward(np.ones_like(out), w, ctx, with_bias=False)
        calls = reg.counter("repro_backend_op_calls")
        assert calls.value(phase="bp", op="conv2d_backward") == 1

    def test_batchnorm_is_op_time_in_both_directions(self):
        """The layer's backward goes through the context's pin, so the
        profiler has to re-pin it to see ``batchnorm_backward``; a
        forward-only call has no context to pin."""
        reg = obs.MetricsRegistry()
        profiled = obs.ProfilingBackend(FusedBackend(), registry=reg)
        bn = nn.BatchNorm2d(3)
        x = np.random.default_rng(0).standard_normal((4, 3, 5, 5)).astype(np.float32)
        with obs.phase_scope("bp"):
            with nn.backend_scope(profiled):
                out = bn(x)
            assert bn._saved.backend is profiled
            # Outside the backend scope: only the pin can route this.
            bn.backward(np.ones_like(out))
        with obs.phase_scope("gp"), nn.backend_scope(profiled), nn.no_grad():
            bn(x)
        calls = reg.counter("repro_backend_op_calls")
        assert calls.value(phase="bp", op="batchnorm_forward") == 1
        assert calls.value(phase="bp", op="batchnorm_backward") == 1
        assert calls.value(phase="gp", op="batchnorm_forward") == 1
        assert calls.value(phase="bp", op="moments") == 0
