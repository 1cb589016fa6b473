"""Tracer unit behaviour: determinism, bounds, exporters, phase scope.

The load-bearing property is bit-identical traces under an injected
clock — what makes trace-based assertions (pipeline timeline agreement,
reconciliation tests) stable fixtures instead of flaky timing tests.
"""

import itertools
import json

import pytest

from repro import obs
from repro.obs.trace import ENGINE_PHASE_TAGS, _NULL_CONTEXT
from repro.core.schedule import Phase


def _counting_clock(step=0.25):
    counter = itertools.count(0)
    return lambda: next(counter) * step


def _record_workload(tracer):
    with tracer.span("engine.batch", phase=obs.BP, epoch=0, batch=0):
        with tracer.span("op.conv", phase=obs.current_phase()):
            pass
    handle = tracer.begin("engine.epoch", epoch=0)
    tracer.end(handle, loss=1.5)
    tracer.record("pipe.fw", obs.GP, 0.0, 2.0, track=1, micro=3)


class TestDeterminism:
    def test_injected_clock_traces_bit_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            tracer = obs.Tracer(clock=_counting_clock())
            _record_workload(tracer)
            path = tmp_path / f"run{run}.jsonl"
            tracer.to_jsonl(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_chrome_export_bit_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            tracer = obs.Tracer(clock=_counting_clock())
            _record_workload(tracer)
            path = tmp_path / f"run{run}.json"
            tracer.to_chrome(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestSpans:
    def test_span_nesting_and_phase_stack(self):
        tracer = obs.Tracer(clock=_counting_clock())
        assert obs.current_phase("none") == "none"
        with tracer.span("outer", phase=obs.BP):
            assert obs.current_phase() == "bp"
            with tracer.span("inner", phase=obs.COMM):
                assert obs.current_phase() == "comm"
            assert obs.current_phase() == "bp"
        assert obs.current_phase("none") == "none"
        # Inner closes first; both carry their own phase.
        assert [(s.name, s.phase) for s in tracer.spans] == [
            ("inner", "comm"),
            ("outer", "bp"),
        ]

    def test_begin_end_args_merge(self):
        tracer = obs.Tracer(clock=_counting_clock())
        handle = tracer.begin("engine.batch", phase=obs.GP, batch=2)
        tracer.end(handle, loss=0.5)
        (span,) = tracer.spans
        assert span.args == {"batch": 2, "loss": 0.5}
        assert span.duration == pytest.approx(0.25)

    def test_decorator(self):
        tracer = obs.Tracer(clock=_counting_clock())

        @tracer.trace("work", phase=obs.EVAL)
        def work(x):
            return x + 1

        assert work(1) == 2
        assert tracer.spans[0].name == "work"
        assert tracer.spans[0].phase == "eval"

    def test_bounded_buffer_drops_new_spans(self):
        tracer = obs.Tracer(clock=_counting_clock(), max_spans=2)
        for index in range(5):
            tracer.record(f"s{index}", obs.BP, 0.0, 1.0)
        assert [s.name for s in tracer.spans] == ["s0", "s1"]
        assert tracer.dropped == 3

    def test_phase_scope_maps_engine_phases(self):
        with obs.phase_scope(Phase.WARMUP):
            assert obs.current_phase() == "bp"  # warm-up is true backprop
        with obs.phase_scope(Phase.GP):
            assert obs.current_phase() == "gp"
        assert ENGINE_PHASE_TAGS["warmup"] == "bp"


class TestDisabledPath:
    def test_disabled_span_is_shared_noop(self):
        tracer = obs.Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b") is _NULL_CONTEXT
        with tracer.span("a"):
            pass
        assert tracer.begin("a") is None
        tracer.end(None)  # no-op, no raise
        tracer.record("a", obs.BP, 0.0, 1.0)
        assert tracer.spans == []

    def test_global_tracer_install_and_restore(self):
        tracer = obs.Tracer(clock=_counting_clock())
        previous = obs.set_tracer(tracer)
        try:
            assert obs.tracer() is tracer
        finally:
            assert obs.set_tracer(previous) is tracer
        assert obs.tracer() is previous


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = obs.Tracer(clock=_counting_clock())
        _record_workload(tracer)
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        loaded = obs.load_jsonl(path)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in tracer.spans]

    def test_chrome_trace_event_shape(self, tmp_path):
        tracer = obs.Tracer(clock=_counting_clock())
        _record_workload(tracer)
        path = tmp_path / "trace.json"
        tracer.to_chrome(path)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        # The epoch span was begun without a phase -> "untagged" category.
        assert {e["cat"] for e in events} == {"bp", "gp", "untagged"}
        micro = [e for e in events if e["name"] == "pipe.fw"]
        assert micro[0]["tid"] == 1 and micro[0]["dur"] == pytest.approx(2e6)
        # Round trip back into spans.
        loaded = obs.spans_from_chrome(path)
        assert len(loaded) == len(tracer.spans)

    def test_phase_seconds_aggregation(self):
        tracer = obs.Tracer(clock=_counting_clock(step=1.0))
        with tracer.span("a", phase=obs.BP):
            pass
        tracer.record("b", obs.GP, 0.0, 3.0)
        assert tracer.phase_seconds() == {"bp": 1.0, "gp": 3.0}
