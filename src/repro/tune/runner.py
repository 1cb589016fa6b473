"""Parallel trial execution with crash isolation and a resume journal.

:class:`SearchRunner` runs a batch of :class:`~repro.tune.trial.TrialSpec`
objects either serially or on a :class:`concurrent.futures.ProcessPoolExecutor`
(trials are pure CPU-bound NumPy, so processes — not threads — are the
unit of parallelism).  Two properties make long searches safe:

* **Crash isolation** — a trial that raises (bad config, numerical
  blow-up) becomes a ``status="failed"`` :class:`TrialResult` carrying
  the error string; the pool and the remaining trials are unaffected.
  Even a hard worker death (e.g. OOM kill) only fails the trials that
  were in flight, never the search.  Deterministic in-trial failures
  are journaled like any result; pool-level (infrastructure) failures
  are *not*, so a resume retries them rather than trusting a verdict
  the trial never produced.
* **Journal resume** — with ``journal=<path>``, every finished trial is
  appended to a JSONL file as ``{"trial": spec, "result": result}``
  the moment it completes.  A rerun of the same search loads the
  journal first and only executes specs not yet recorded, so an
  interrupted search resumes without re-running finished trials and
  (trials being deterministic) produces bit-identical
  :meth:`~repro.tune.trial.TrialResult.deterministic_dict` outputs.
  A half-written line (the interruption itself) is ignored, and the
  next append starts on a fresh line behind it.
"""

from __future__ import annotations

import json
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Optional, Sequence, Union

from .trial import TrialResult, TrialSpec, run_trial

JOURNAL_VERSION = 1


def run_trial_guarded(spec_dict: dict) -> dict:
    """Process-pool entry point: never raises, always returns a result
    dict (module-level so it pickles under every start method)."""
    spec = TrialSpec.from_dict(spec_dict)
    try:
        return run_trial(spec).to_dict()
    except Exception as err:  # crash isolation: the pool must survive
        return TrialResult.failed(spec, err).to_dict()


def load_journal(path: Union[str, Path]) -> dict[str, dict]:
    """Completed trials from a journal: ``trial_id -> journal record``.

    Tolerates a missing file (fresh search), a torn line (the write
    that an interruption cut short) and any line that is not a record
    of this journal version.
    """
    path = Path(path)
    if not path.exists():
        return {}
    records: dict[str, dict] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn write at the interruption point
        if not isinstance(record, dict) or record.get("version") != JOURNAL_VERSION:
            continue
        trial, result = record.get("trial"), record.get("result")
        if isinstance(trial, dict) and "trial_id" in trial and isinstance(result, dict):
            records[trial["trial_id"]] = record
    return records


class SearchRunner:
    """Execute trial specs with ``workers`` processes and journaling.

    ``workers=1`` (the default) runs in-process — same results, no pool
    overhead, the right mode for tests and tiny searches.  The
    ``executed`` counter records how many trials actually ran (vs. were
    served from the journal) in the most recent :meth:`run`.

    The journal has one writer: this process appends every record; pool
    workers only return result dicts.
    """

    def __init__(
        self, workers: int = 1, journal: Optional[Union[str, Path]] = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.journal = Path(journal) if journal is not None else None
        self.executed = 0

    # ------------------------------------------------------------------
    def _record(self, spec: TrialSpec, result: TrialResult) -> None:
        if self.journal is None:
            return
        line = json.dumps(
            {
                "version": JOURNAL_VERSION,
                "trial": spec.to_dict(),
                "result": result.to_dict(),
            },
            sort_keys=True,
            # Strict RFC-8259 output: TrialResult.to_dict already maps
            # non-finite floats to null; anything else slipping through
            # should fail loudly, not emit NaN tokens.
            allow_nan=False,
        )
        with self.journal.open("ab+") as handle:
            # An interrupted write leaves a fragment with no newline;
            # end it so this record starts a line of its own and
            # load_journal drops the fragment, not the record.
            if handle.seek(0, 2):
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line.encode() + b"\n")
            handle.flush()

    def _from_journal(self, specs: Sequence[TrialSpec]) -> dict[str, TrialResult]:
        if self.journal is None:
            return {}
        records = load_journal(self.journal)
        done: dict[str, TrialResult] = {}
        for spec in specs:
            record = records.get(spec.trial_id)
            if record is None:
                continue
            if record["trial"] != spec.to_dict():
                raise ValueError(
                    f"journal {self.journal} holds trial {spec.trial_id!r} "
                    "with a different spec; this journal belongs to another "
                    "search — delete it or pass a fresh path"
                )
            done[spec.trial_id] = TrialResult.from_dict(record["result"])
        return done

    # ------------------------------------------------------------------
    def _run_serial(self, pending: Sequence[TrialSpec]) -> dict[str, TrialResult]:
        results: dict[str, TrialResult] = {}
        for spec in pending:
            result = TrialResult.from_dict(run_trial_guarded(spec.to_dict()))
            self._record(spec, result)
            results[spec.trial_id] = result
        return results

    def _run_pool(self, pending: Sequence[TrialSpec]) -> dict[str, TrialResult]:
        results: dict[str, TrialResult] = {}
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(run_trial_guarded, spec.to_dict()): spec
                for spec in pending
            }
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    spec = futures[future]
                    try:
                        result = TrialResult.from_dict(future.result())
                    except Exception as err:
                        # A worker died outright (BrokenProcessPool et
                        # al.): an *infrastructure* failure, not a
                        # property of the trial.  Report it failed for
                        # this run but keep it out of the journal so a
                        # resume retries it instead of serving the
                        # broken-pool verdict forever.
                        results[spec.trial_id] = TrialResult.failed(spec, err)
                        continue
                    self._record(spec, result)
                    results[spec.trial_id] = result
        return results

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[TrialSpec]) -> list[TrialResult]:
        """Run every spec (journal hits excluded) and return results in
        spec order."""
        ids = [spec.trial_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("trial ids must be unique within one run")
        results = self._from_journal(specs)
        pending = [spec for spec in specs if spec.trial_id not in results]
        self.executed = len(pending)
        if pending:
            runner = self._run_pool if self.workers > 1 else self._run_serial
            results.update(runner(pending))
        return [results[trial_id] for trial_id in ids]
