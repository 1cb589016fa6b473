"""Tests for the parallel runner: journal resume and crash isolation."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.tune import (
    JOURNAL_VERSION,
    Grid,
    GridSearch,
    SearchRunner,
    SearchSpace,
    TrialResult,
    TrialSpec,
    load_journal,
    spec_from_config,
)


TINY = dict(
    model="VGG13", dataset="Cifar10", num_train=32, num_val=16,
    batch_size=16, epochs=2, lr=0.05,
)


def _specs(count=3, **overrides):
    params = {**TINY, **overrides}
    return [
        spec_from_config(
            f"t{i:02d}",
            {"kind": "adaptive", "warmup_epochs": 1, "threshold_scale": 2.0 + i},
            seed=i,
            **params,
        )
        for i in range(count)
    ]


class TestSerialRunner:
    def test_results_in_spec_order(self):
        results = SearchRunner().run(_specs(2))
        assert [r.trial_id for r in results] == ["t00", "t01"]
        assert all(r.status == "ok" for r in results)

    def test_duplicate_ids_rejected(self):
        specs = _specs(1) * 2
        with pytest.raises(ValueError, match="unique"):
            SearchRunner().run(specs)

    def test_crash_isolation(self):
        """A failing trial becomes a failed result; the rest complete."""
        specs = _specs(2)
        bad = TrialSpec(**{**specs[0].to_dict(), "trial_id": "bad", "model": "NoSuchNet"})
        results = SearchRunner().run([specs[0], bad, specs[1]])
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert "NoSuchNet" in results[1].error


class TestJournalResume:
    def test_interrupted_search_resumes_bit_identically(self, tmp_path):
        """Run a prefix, then the full search against the same journal:
        finished trials are not re-run and every result matches an
        uninterrupted run exactly (minus wall time)."""
        journal = tmp_path / "search.jsonl"
        specs = _specs(3)

        first = SearchRunner(journal=journal)
        first.run(specs[:2])  # the "interrupted" prefix
        assert first.executed == 2

        resumed = SearchRunner(journal=journal)
        resumed_results = resumed.run(specs)
        assert resumed.executed == 1  # only the unfinished trial ran

        uninterrupted = SearchRunner().run(specs)
        assert [r.deterministic_dict() for r in resumed_results] == [
            r.deterministic_dict() for r in uninterrupted
        ]

    def test_journal_records_are_versioned(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        SearchRunner(journal=journal).run(_specs(1))
        record = json.loads(journal.read_text().splitlines()[0])
        assert record["version"] == JOURNAL_VERSION
        assert record["trial"]["trial_id"] == "t00"
        assert record["result"]["status"] == "ok"

    def test_torn_final_line_is_ignored(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        runner = SearchRunner(journal=journal)
        runner.run(_specs(2))
        with journal.open("a") as handle:
            handle.write('{"version": 1, "trial": {"trial_id": "t02"')  # torn
        assert set(load_journal(journal)) == {"t00", "t01"}
        resumed = SearchRunner(journal=journal)
        resumed.run(_specs(3))
        assert resumed.executed == 1

    def test_torn_tail_does_not_eat_the_next_record(self, tmp_path):
        """An interrupted write leaves a fragment with no newline; the
        first append after resume must start its own line, or the
        completed trial is glued to the fragment, dropped as torn and
        silently re-run on the next resume."""
        journal = tmp_path / "search.jsonl"
        specs = _specs(3)
        SearchRunner(journal=journal).run(specs[:1])
        t1_line = json.dumps(
            {"version": JOURNAL_VERSION, "trial": specs[1].to_dict(), "result": {}},
            sort_keys=True,
        )
        with journal.open("a") as handle:
            handle.write(t1_line[: len(t1_line) // 2])  # interrupted mid-write
        resumed = SearchRunner(journal=journal)
        resumed.run(specs)
        assert resumed.executed == 2
        assert list(load_journal(journal)) == ["t00", "t01", "t02"]
        third = SearchRunner(journal=journal)
        third.run(specs)
        assert third.executed == 0

    def test_mismatched_spec_fails_loudly(self, tmp_path):
        """A journal from a different search must not silently satisfy
        this one."""
        journal = tmp_path / "search.jsonl"
        SearchRunner(journal=journal).run(_specs(1))
        changed = _specs(1, epochs=3)
        with pytest.raises(ValueError, match="different spec"):
            SearchRunner(journal=journal).run(changed)

    def test_tuple_bearing_specs_resume_cleanly(self, tmp_path):
        """Hand-built specs with tuples (schedule knobs) must compare
        equal to their JSON round-trip, or resume would reject its own
        journal as belonging to another search."""
        journal = tmp_path / "search.jsonl"
        base = _specs(1)[0].to_dict()
        schedule = {
            **base["schedule"],
            "thresholds": tuple(base["schedule"]["thresholds"]),
            "ratios": tuple(tuple(pair) for pair in base["schedule"]["ratios"]),
        }
        spec = TrialSpec(**{**base, "trial_id": "tup", "schedule": schedule})
        SearchRunner(journal=journal).run([spec])
        resumed = SearchRunner(journal=journal)
        results = resumed.run([spec])
        assert resumed.executed == 0
        assert results[0].status == "ok"

    def test_failed_trials_are_journaled_too(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        bad = TrialSpec(
            **{**_specs(1)[0].to_dict(), "trial_id": "bad", "model": "NoSuchNet"}
        )
        SearchRunner(journal=journal).run([bad])
        resumed = SearchRunner(journal=journal)
        results = resumed.run([bad])
        assert resumed.executed == 0
        assert results[0].status == "failed"


class TestParallelRunner:
    def test_pool_matches_serial_bit_for_bit(self):
        specs = _specs(3)
        serial = SearchRunner(workers=1).run(specs)
        parallel = SearchRunner(workers=2).run(specs)
        assert [r.deterministic_dict() for r in parallel] == [
            r.deterministic_dict() for r in serial
        ]

    def test_resume_under_different_worker_count_is_identical(self, tmp_path):
        """A trial is a pure function of its spec, never of the executing
        pool — so a search interrupted and resumed with a different
        ``workers=`` count must reproduce the uninterrupted search's
        results bit for bit."""
        space = SearchSpace(
            {
                "kind": "adaptive",
                "threshold_scale": Grid(1.0, 2.0, 4.0, 8.0),
                "warmup_epochs": 1,
            }
        )
        specs = [
            dataclasses.replace(spec, seed=seed)
            for seed, spec in enumerate(GridSearch(space, **TINY).specs(), start=9)
        ]

        reference = SearchRunner(workers=1).run(specs)

        journal = tmp_path / "search.jsonl"
        first = SearchRunner(workers=2, journal=journal)
        first.run(specs[:2])  # "interrupted" after two trials
        assert first.executed == 2
        resumed = SearchRunner(workers=3, journal=journal)
        results = resumed.run(specs)
        assert resumed.executed == 2  # journal served the finished half

        assert [r.deterministic_dict() for r in results] == [
            r.deterministic_dict() for r in reference
        ]

    def test_pool_crash_isolation_and_journal(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        specs = _specs(2)
        bad = TrialSpec(**{**specs[0].to_dict(), "trial_id": "bad", "model": "NoSuchNet"})
        results = SearchRunner(workers=2, journal=journal).run([specs[0], bad, specs[1]])
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert set(load_journal(journal)) == {"t00", "bad", "t01"}

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            SearchRunner(workers=0)

    def test_pool_breakage_is_not_journaled(self, tmp_path, monkeypatch):
        """A worker dying (BrokenProcessPool-class failure) fails the
        in-flight trial for this run but must NOT be journaled — a
        resume retries it instead of serving the broken-pool verdict
        forever."""
        from repro.tune import runner as runner_module

        class _DeadFuture:
            def result(self):
                raise RuntimeError("worker died")

        class _DeadPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, arg):
                return _DeadFuture()

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _DeadPool)
        monkeypatch.setattr(
            runner_module, "wait", lambda futures, return_when: (set(futures), set())
        )
        journal = tmp_path / "search.jsonl"
        specs = _specs(2)
        results = SearchRunner(workers=2, journal=journal).run(specs)
        assert all(r.status == "failed" for r in results)
        assert not journal.exists() or load_journal(journal) == {}
        # The resumed (healthy, serial here) run re-executes everything.
        healthy = SearchRunner(journal=journal)
        resumed = healthy.run(specs)
        assert healthy.executed == 2
        assert all(r.status == "ok" for r in resumed)


# ----------------------------------------------------------------------
# Journal lines over generated inputs.
# ----------------------------------------------------------------------
def _seq(elements, **kwargs):
    """A list or a tuple of ``elements`` — hand-built specs carry both."""
    return st.lists(elements, **kwargs).flatmap(
        lambda items: st.sampled_from([items, tuple(items)])
    )


_ratio = _seq(st.integers(1, 9), min_size=2, max_size=2)
_schedules = st.one_of(
    st.fixed_dictionaries(
        {
            "kind": st.just("adaptive"),
            "warmup_epochs": st.integers(0, 8),
            "thresholds": _seq(st.floats(0.1, 50.0), max_size=4),
            "ratios": _seq(_ratio, max_size=4),
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("heuristic"),
            "warmup_epochs": st.integers(0, 8),
            "ladder": _seq(st.tuples(st.integers(1, 9), _ratio), max_size=3),
            "final_ratio": _ratio,
        }
    ),
)
_any_float = st.floats(allow_nan=True, allow_infinity=True)
_series = st.lists(_any_float, max_size=4)


@st.composite
def _journal_entries(draw):
    """Unique-id (spec, result) pairs; results are ``ok`` with arbitrary
    (NaN / inf / empty) measurements or ``failed`` with error text."""
    entries = []
    for index in range(draw(st.integers(1, 3))):
        spec = TrialSpec(
            trial_id=f"t{index}",
            schedule=draw(_schedules),
            epochs=draw(st.integers(1, 64)),
            lr=draw(st.floats(1e-5, 1.0)),
            seed=draw(st.integers(0, 2**31)),
        )
        if draw(st.booleans()):
            result = TrialResult.failed(spec, ValueError(draw(st.text(max_size=20))))
        else:
            result = TrialResult(
                trial_id=spec.trial_id,
                status="ok",
                spec=spec.to_dict(),
                epochs_run=draw(st.integers(0, 64)),
                best_metric=draw(_any_float),
                final_metric=draw(_any_float),
                val_metric=draw(_series),
                train_loss=draw(_series),
                gp_share=draw(_any_float),
                gp_fraction=draw(_series),
                cycle_speedup=draw(_any_float),
                wall_time_s=draw(st.floats(0.0, 1e6)),
            )
        entries.append((spec, result))
    return entries


#: Valid JSON that is not a record of this journal version.
_NOT_RECORDS = (
    "null",
    "7",
    "[]",
    '{"version": %d}' % JOURNAL_VERSION,
    '{"version": %d, "trial": {"trial_id": "t0"}, "result": {}}' % (JOURNAL_VERSION + 1),
)


@settings(max_examples=60, deadline=None)
@given(
    entries=_journal_entries(),
    noise=st.sampled_from(_NOT_RECORDS),
    cut_back=st.integers(0, 10_000),
)
def test_journal_lines_round_trip_and_survive_truncation(entries, noise, cut_back):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "search.jsonl"
        journal.write_text(noise + "\n")
        runner = SearchRunner(journal=journal)
        for spec, result in entries:
            runner._record(spec, result)

        # _record -> load_journal -> from_dict is exact, noise ignored.
        records = load_journal(journal)
        assert list(records) == [spec.trial_id for spec, _ in entries]
        for spec, result in entries:
            record = records[spec.trial_id]
            assert record["trial"] == spec.to_dict()
            assert TrialResult.from_dict(record["result"]).to_dict() == result.to_dict()

        # Cut the file anywhere inside the last record: only that record
        # is lost (kept whole if just its newline went), nothing raises.
        data = journal.read_bytes()
        start = data.rindex(b"\n", 0, len(data) - 1) + 1
        cut = max(start, len(data) - 1 - cut_back)
        journal.write_bytes(data[:cut])
        survivors = [spec.trial_id for spec, _ in entries[:-1]]
        if cut == len(data) - 1:
            survivors.append(entries[-1][0].trial_id)
        assert list(load_journal(journal)) == survivors

        # ... and the next append lands on a line of its own.
        extra = TrialSpec(trial_id="extra", schedule=entries[0][0].schedule)
        runner._record(extra, TrialResult.failed(extra, RuntimeError("x")))
        assert list(load_journal(journal)) == survivors + ["extra"]
