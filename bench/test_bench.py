"""Unit tests for the benchmark's own machinery; they run no workload.

The span recorder is driven by an injected counting clock, so every
duration below is an exact integer.
"""

import json

import pytest

from bench.run import Spec, compare, loss_target, time_to_target
from bench.trace import Recorder, load_jsonl
from repro.obs import load_jsonl as obs_load_jsonl


class CountingClock:
    """Each read returns the next integer: a span with nothing inside
    lasts 1, and every nested clock read adds 1 to its parents."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now


@pytest.fixture
def recorder() -> Recorder:
    return Recorder(clock=CountingClock())


def _batch(recorder: Recorder, phase: str) -> None:
    batch = recorder.begin("train_batch", phase)  # clock 1
    forward = recorder.begin("forward")  # 2
    recorder.end(recorder.begin("predict"))  # 3..4
    recorder.end(forward)  # 5
    recorder.end(recorder.begin("backward"))  # 6..7
    recorder.end(batch)  # 8


class TestRecorder:
    def test_spans_carry_parent_phase_and_fit(self, recorder):
        recorder.fit = "subject-0"
        _batch(recorder, "bp")
        names = [s.name for s in recorder.spans]
        assert names == ["train_batch", "forward", "predict", "backward"]
        assert [s.parent for s in recorder.spans] == [None, 0, 1, 0]
        # phase=None inherits from the enclosing span.
        assert {s.phase for s in recorder.spans} == {"bp"}
        assert {s.fit for s in recorder.spans} == {"subject-0"}
        assert [(s.start, s.end) for s in recorder.spans] == [(1, 8), (2, 5), (3, 4), (6, 7)]

    def test_self_time_is_duration_minus_direct_children(self, recorder):
        _batch(recorder, "gp")
        assert recorder.self_times() == [7 - 3 - 1, 3 - 1, 1, 1]

    def test_self_times_partition_the_root(self, recorder):
        root = recorder.begin("fit")
        for phase in ("bp", "gp", "gp"):
            _batch(recorder, phase)
        recorder.end(root)
        assert sum(recorder.self_times()) == recorder.spans[root].duration

    def test_rollup_groups_by_name_and_phase_within_one_fit(self, recorder):
        recorder.fit = "a"
        _batch(recorder, "bp")
        _batch(recorder, "gp")
        recorder.fit = "b"
        _batch(recorder, "gp")
        rows = recorder.rollup("a")
        assert rows[("train_batch", "bp")] == {"self_s": 3, "total_s": 7, "calls": 1}
        assert rows[("forward", "gp")] == {"self_s": 2, "total_s": 3, "calls": 1}
        assert recorder.rollup()[("predict", "gp")]["calls"] == 2
        assert recorder.durations("train_batch", "gp") == [7, 7]
        assert recorder.durations("train_batch", "gp", fit="b") == [7]

    def test_wrap_records_a_span_and_closes_it_when_the_call_raises(self, recorder):
        def boom(x):
            raise ValueError(x)

        traced = recorder.wrap(boom, "boom", phase_of=lambda x: f"p{x}")
        with pytest.raises(ValueError):
            traced(3)
        assert [(s.name, s.phase, s.duration) for s in recorder.spans] == [("boom", "p3", 1)]
        recorder.end(recorder.begin("next"))  # the stack was unwound
        assert recorder.spans[-1].parent is None

    def test_wrap_iter_times_the_wait_not_the_consumer(self, recorder):
        consumed = []
        for item in recorder.wrap_iter(iter("ab"), "wait"):
            recorder.end(recorder.begin("work"))
            consumed.append(item)
        assert consumed == ["a", "b"]
        waits = [s for s in recorder.spans if s.name == "wait"]
        assert len(waits) == 3  # two items and the StopIteration
        assert all(s.duration == 1 and s.parent is None for s in waits)

    def test_closing_out_of_order_is_an_error(self, recorder):
        outer = recorder.begin("outer")
        recorder.begin("inner")
        with pytest.raises(RuntimeError, match="out of order"):
            recorder.end(outer)

    def test_jsonl_round_trips_and_repro_obs_reads_it(self, recorder, tmp_path):
        recorder.fit = "subject-0"
        _batch(recorder, "bp")
        path = tmp_path / "trace.jsonl"
        recorder.dump_jsonl(path)
        loaded = load_jsonl(path)
        assert list(loaded.rows()) == list(recorder.rows())
        assert loaded.rollup() == recorder.rollup()
        spans = obs_load_jsonl(path)
        assert [(s.name, s.phase, s.start, s.end) for s in spans] == [
            (s.name, s.phase, s.start, s.end) for s in recorder.spans
        ]


def test_time_to_target_is_the_first_batch_whose_running_mean_crosses():
    losses = [4.0, 3.0, 2.0, 1.0, 1.0, 5.0]
    fit = {"steps": [("bp", 0.1, loss, 10.0 + i) for i, loss in enumerate(losses)]}
    assert time_to_target(fit, 2.0, window=2) == 13.0  # mean(2, 1) = 1.5
    assert time_to_target(fit, 1.0, window=2) == 14.0
    assert time_to_target(fit, 0.5, window=2) is None


def test_loss_target_is_crossed_by_both_arms_of_its_own_run():
    def fit(losses):
        return {"steps": [("bp", 0.1, loss, float(i)) for i, loss in enumerate(losses)]}

    fits = {
        "subject": fit([3.0, 2.9, 2.52, 2.50, 2.56, 2.4, 2.3, 2.2, 2.1, 2.0]),
        "baseline": fit([3.0, 2.0, 1.5, 1.2, 1.1, 1.0, 0.9, 0.8, 0.7, 0.6]),
    }
    # At 80 % of 10 batches the 2-batch running means are 2.25 and 0.85;
    # the larger one, rounded up to two significant digits, is the target.
    target = loss_target(fits, window=2)
    assert target == 2.3
    assert time_to_target(fits["subject"], target, window=2) == 7.0
    assert time_to_target(fits["baseline"], target, window=2) == 2.0


class TestCompare:
    """Verdicts against the bounds in BENCHMARK.json."""

    @staticmethod
    def _record(path, spec, scale=1.0, sets=(1.0,), failed=0, only="fit_wall_s"):
        def one(factor):
            return {
                name: {
                    "end_to_end": {
                        key: 10.0 * (factor if key == only else 1.0)
                        for key in spec.end_to_end
                    },
                    "attempted": 100,
                    "failed": failed,
                }
                for name in spec.workloads
            }

        record = {"median": one(scale), "sets": [one(scale * s) for s in sets]}
        path.write_text(json.dumps(record))
        return str(path)

    def test_within_bound_passes_and_beyond_it_regresses(self, tmp_path, capsys):
        spec = Spec()
        bound = spec.end_to_end["fit_wall_s"]["bound"]
        a = self._record(tmp_path / "a.json", spec)
        ok = self._record(tmp_path / "ok.json", spec, scale=1.0 + bound / 2)
        bad = self._record(tmp_path / "bad.json", spec, scale=1.0 + 2 * bound)
        assert compare(spec, a, ok) == 0
        assert "REGRESSION" not in capsys.readouterr().out
        assert compare(spec, a, bad) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_higher_is_better_metrics_regress_downwards(self, tmp_path):
        spec = Spec()
        a = self._record(tmp_path / "a.json", spec)
        slower = self._record(
            tmp_path / "b.json", spec, scale=0.5, only="speedup_vs_baseline"
        )
        faster = self._record(
            tmp_path / "c.json", spec, scale=2.0, only="speedup_vs_baseline"
        )
        assert compare(spec, a, slower) == 1
        assert compare(spec, a, faster) == 0

    def test_noisy_parent_makes_a_miss_unresolved(self, tmp_path, capsys):
        spec = Spec()
        bound = spec.end_to_end["fit_wall_s"]["bound"]
        noisy = self._record(tmp_path / "a.json", spec, sets=(1.0, 1.0 + 3 * bound))
        worse = self._record(tmp_path / "b.json", spec, scale=1.0 + 2 * bound)
        assert compare(spec, noisy, worse) == 0
        assert "UNRESOLVED" in capsys.readouterr().out

    def test_more_failed_operations_is_a_regression(self, tmp_path):
        spec = Spec()
        a = self._record(tmp_path / "a.json", spec)
        b = self._record(tmp_path / "b.json", spec, failed=1)
        assert compare(spec, a, b) == 1
