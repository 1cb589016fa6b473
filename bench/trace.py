"""In-memory span recorder for the traced benchmark run.

The benchmark wraps the public calls into each module from outside
(``bench/instrument.py``) and records one :class:`Span` per call: name,
start, end, the span that caused it, the training phase and the id of
the fit it belongs to.  Spans stay in memory and are written as JSONL
when the run ends.  A row of the waterfall is *self* time — a span's
duration minus the part its child spans cover — so the rows partition
the root span exactly and can be summed against the fit wall.

The JSONL rows use ``repro.obs`` field names where the two overlap
(``name``, ``phase``, ``start``, ``end``), so ``repro.obs.load_jsonl``
reads the file too; ``id``, ``parent`` and ``fit`` are extra keys it
ignores.  The clock is injectable so the tests run under a counting
clock.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Iterable, Iterator, Optional


class Span:
    """One recorded call; ``parent`` is an index into ``Recorder.spans``."""

    __slots__ = ("name", "phase", "fit", "parent", "start", "end")

    def __init__(self, name, phase, fit, parent, start) -> None:
        self.name = name
        self.phase = phase
        self.fit = fit
        self.parent = parent
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records properly nested spans on one thread.

    ``phase=None`` inherits the enclosing span's phase, so a call made
    inside a BP batch is attributed to ``bp`` without the wrapper
    knowing about phases.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.fit = ""
        self._open: list[int] = []

    def begin(self, name: str, phase: Optional[str] = None) -> int:
        parent = self._open[-1] if self._open else None
        if phase is None:
            phase = self.spans[parent].phase if parent is not None else ""
        index = len(self.spans)
        self._open.append(index)
        self.spans.append(Span(name, phase, self.fit, parent, self.clock()))
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    def wrap(self, fn: Callable, name: str, phase_of: Optional[Callable] = None):
        """``fn`` with a span around every call.  ``phase_of(*args,
        **kwargs)`` names the phase from the call's arguments; without
        it the span inherits its parent's."""

        def traced(*args, **kwargs):
            phase = phase_of(*args, **kwargs) if phase_of is not None else None
            index = self.begin(name, phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap_iter(self, iterable: Iterable, name: str) -> Iterator:
        """Iterate ``iterable`` with a span around each ``next``: the
        time the consumer waits for its next item."""
        iterator = iter(iterable)
        while True:
            index = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(index)
            yield item

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span, its duration minus its direct children's."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def rollup(self, fit: Optional[str] = None) -> dict[tuple[str, str], dict]:
        """``{(name, phase): {"self_s", "total_s", "calls"}}`` over the
        spans of one fit (all fits when ``fit`` is ``None``)."""
        rows: dict[tuple[str, str], dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            if fit is not None and span.fit != fit:
                continue
            row = rows.setdefault(
                (span.name, span.phase), {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            row["self_s"] += own
            row["total_s"] += span.duration
            row["calls"] += 1
        return rows

    def durations(self, name: str, phase: str, fit: Optional[str] = None) -> list[float]:
        return [
            span.duration
            for span in self.spans
            if span.name == name
            and span.phase == phase
            and (fit is None or span.fit == fit)
        ]

    # -- export ----------------------------------------------------------
    def rows(self) -> Iterator[dict]:
        for index, span in enumerate(self.spans):
            yield {
                "id": index,
                "parent": span.parent,
                "fit": span.fit,
                "name": span.name,
                "phase": span.phase,
                "start": span.start,
                "end": span.end,
            }

    def dump_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_jsonl(path) -> Recorder:
    """Rebuild a :class:`Recorder` from a :meth:`Recorder.dump_jsonl`
    file, for analysing a trace after the run."""
    recorder = Recorder()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            span = Span(row["name"], row["phase"], row["fit"], row["parent"], row["start"])
            span.end = row["end"]
            recorder.spans.append(span)
    return recorder
