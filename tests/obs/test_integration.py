"""End-to-end observability: the ISSUE 10 acceptance criteria.

One adagp run with ``TracingCallback`` + ``MetricsCallback`` attached
must produce (a) a trace whose per-phase span totals reconcile with
``ThroughputTimer`` within 1%, (b) a metrics snapshot whose comm
counters equal ``CommStats`` exactly under W=2 DDP, and (c) chaos runs
whose fault/retry/rebuild increments match the ledger.  Plus: pipeline
spans rebuild a Timeline identical to the executor's, and the profiler
emits the Fig-15 phase×op table.
"""

import itertools

import numpy as np
import pytest

from repro import nn, obs
from repro.core import (
    HeuristicSchedule,
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
from repro.nn.backend import FusedBackend
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.pipeline import Timeline, render_timeline


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
            callbacks=[obs.TracingCallback(tracer), obs.MetricsCallback(reg)],
        )
        history = _fit(engine, _split())
        batch_spans = [s for s in tracer.spans if s.name == "engine.batch"]
        gp_spans = sum(1 for s in batch_spans if s.phase == "gp")
        bp_spans = sum(1 for s in batch_spans if s.phase == "bp")
        assert gp_spans == sum(history.gp_batches)
        assert bp_spans == sum(history.bp_batches)
        live = reg.counter("repro_engine_batches_live")
        assert live.value(phase="gp") == gp_spans
        assert live.value(phase="bp") == bp_spans
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


class TestDistObservability:
    def test_comm_counters_equal_commstats_exactly_w2(self):
        """Acceptance (b): bridged counters are set_to-pinned copies of
        CommStats.totals() — exact equality, not approximation."""
        reg = obs.MetricsRegistry()
        engine = ddp_engine(
            _model(),
            CrossEntropyLoss(),
            workers=2,
            transport="local",
            lr=0.05,
            metric_fn=accuracy,
            schedule=_schedule(),
        )
        engine.add_callback(obs.MetricsCallback(reg))
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
        fault + rebuild increments, and the bridged counters show the
        ledger's exact numbers."""
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
        )
        engine.add_callback(obs.MetricsCallback(reg))
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
                reg.counter(f"repro_dist_{key}").set_to(value)
            parts.append(reg.snapshot())
        serial = obs.MetricsRegistry()
        for key, value in comm.totals().items():
            serial.counter(f"repro_dist_{key}").set_to(value)
        assert obs.merge_snapshots(parts) == serial.snapshot()


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
        rebuilt = Timeline.from_spans(pipe_spans)
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
        timeline = Timeline.from_spans(tracer.spans)
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
            assert bn._cache.backend is profiled
            # Outside the backend scope: only the pin can route this.
            bn.backward(np.ones_like(out))
        with obs.phase_scope("gp"), nn.backend_scope(profiled), nn.no_grad():
            bn(x)
        calls = reg.counter("repro_backend_op_calls")
        assert calls.value(phase="bp", op="batchnorm_forward") == 1
        assert calls.value(phase="bp", op="batchnorm_backward") == 1
        assert calls.value(phase="gp", op="batchnorm_forward") == 1
        assert calls.value(phase="bp", op="moments") == 0
