"""Span-based tracer with phase tags, bounded buffers and exporters.

One :class:`Tracer` records :class:`Span` rows — named intervals tagged
with a training *phase* (``bp`` / ``gp`` / ``predictor_train`` / ``eval``
/ ``comm`` / ``recovery``) — into a bounded in-memory buffer.  Call
sites open spans three ways:

* ``with tracer.span("dist.sync", phase=COMM, nbytes=n):`` — context
  manager (also usable as a decorator via :meth:`Tracer.trace`);
* ``handle = tracer.begin(...)`` / ``tracer.end(handle)`` — split
  open/close for callback pairs (``on_batch_begin``/``on_batch_end``);
* ``tracer.record(name, phase, start, end, ...)`` — pre-measured
  intervals on a caller-supplied clock (the pipeline executor's virtual
  device clocks).

The **disabled path is near-free**: the module-level default tracer is
a shared :data:`NULL_TRACER` whose ``enabled`` flag is ``False``; every
instrumented call site is gated on that one attribute (``span`` returns
one shared reusable no-op context manager, ``begin``/``record`` return
early), so leaving the instrumentation in hot paths costs one branch.

Determinism: the clock is injectable (``Tracer(clock=...)``), so tests
drive spans from a counting fake and the serialized trace is
bit-identical across runs.  The default clock is ``time.perf_counter``
— the one justified raw-clock site the ``obs-discipline`` lint rule
inline-exempts: every other timing in the instrumented subsystems must
route through this module.

This module deliberately imports nothing from the rest of ``repro`` so
any subsystem (core engine, dist, pipeline, backends) can instrument
itself without import cycles.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

#: Canonical phase tags (free-form strings are allowed, these are the
#: vocabulary the report/exporters group by).
BP = "bp"
GP = "gp"
PREDICTOR_TRAIN = "predictor_train"
EVAL = "eval"
COMM = "comm"
RECOVERY = "recovery"

#: Map engine ``Phase`` enum values onto span phase tags (warm-up runs
#: true backprop, so it is BP time in every paper breakdown).
ENGINE_PHASE_TAGS = {"warmup": BP, "bp": BP, "gp": GP}


def phase_tag(phase) -> str:
    """The span phase tag for an engine ``Phase`` (or any string)."""
    value = getattr(phase, "value", phase)
    return ENGINE_PHASE_TAGS.get(str(value), str(value))


@dataclass
class Span:
    """One completed named interval."""

    name: str
    phase: str
    start: float
    end: float
    track: int = 0  # render lane (pipeline stage, rank, ...)
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        row = {
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "track": self.track,
        }
        if self.args:
            row["args"] = self.args
        return row

    @classmethod
    def from_dict(cls, row: dict) -> "Span":
        return cls(
            name=row["name"],
            phase=row.get("phase", ""),
            start=row["start"],
            end=row["end"],
            track=row.get("track", 0),
            args=row.get("args", {}),
        )


class _SpanHandle:
    """Open span state returned by :meth:`Tracer.begin`."""

    __slots__ = ("name", "phase", "start", "track", "args")

    def __init__(self, name: str, phase: str, start: float, track: int, args: dict):
        self.name = name
        self.phase = phase
        self.start = start
        self.track = track
        self.args = args


class _NullContext:
    """Shared reusable no-op context manager (the disabled span)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()

#: Innermost-wins stack of phase tags; lets the op profiler attribute
#: backend work to the phase that is running even when no span is open.
_PHASE_STACK: list[str] = []


def current_phase(default: str = "") -> str:
    """The innermost active phase tag (from :func:`phase_scope` or an
    enabled tracer's phase-tagged spans)."""
    return _PHASE_STACK[-1] if _PHASE_STACK else default


class phase_scope:
    """Context manager pushing a phase tag for :func:`current_phase`.

    Costs one list append/pop — cheap enough for the engine to enter
    around every batch unconditionally, which is what lets the op
    profiler attribute work to phases without tracing enabled.
    """

    __slots__ = ("_tag",)

    def __init__(self, phase) -> None:
        self._tag = phase_tag(phase)

    def __enter__(self) -> str:
        _PHASE_STACK.append(self._tag)
        return self._tag

    def __exit__(self, *exc_info) -> bool:
        _PHASE_STACK.pop()
        return False


class _TracerSpan:
    """Context manager for one enabled span (pushes its phase tag)."""

    __slots__ = ("_tracer", "_handle")

    def __init__(self, tracer: "Tracer", handle: _SpanHandle) -> None:
        self._tracer = tracer
        self._handle = handle

    def __enter__(self) -> _SpanHandle:
        _PHASE_STACK.append(self._handle.phase)
        return self._handle

    def __exit__(self, *exc_info) -> bool:
        _PHASE_STACK.pop()
        self._tracer.end(self._handle)
        return False


class Tracer:
    """Phase-tagged span recorder with a bounded buffer.

    Parameters
    ----------
    clock:
        Zero-argument monotonic time source.  Injecting a deterministic
        fake makes recorded spans bit-identical across runs (the trace
        determinism tests); the default is the process monotonic clock.
    max_spans:
        Buffer bound.  Past it new spans are *dropped* (counted in
        :attr:`dropped`) rather than evicting old ones — the head of a
        trace is what reconciles against History, and an unbounded
        buffer would let a long run eat the heap.
    enabled:
        Initial state; :meth:`enable` / :meth:`disable` flip it.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 100_000,
        enabled: bool = True,
    ) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.clock = clock if clock is not None else time.perf_counter  # repro: noqa[obs-discipline] — the tracer IS the clock
        self.max_spans = int(max_spans)
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self.dropped = 0

    # -- recording -------------------------------------------------------
    def span(self, name: str, phase: str = "", track: int = 0, **args):
        """Context manager timing one span; no-op when disabled."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _TracerSpan(
            self, _SpanHandle(name, phase, self.clock(), track, args)
        )

    def trace(self, name: str, phase: str = ""):
        """Decorator form of :meth:`span`."""

        def deco(fn):
            def wrapped(*a, **kw):
                with self.span(name, phase=phase):
                    return fn(*a, **kw)

            wrapped.__name__ = getattr(fn, "__name__", name)
            wrapped.__doc__ = fn.__doc__
            return wrapped

        return deco

    def begin(
        self, name: str, phase: str = "", track: int = 0, **args
    ) -> Optional[_SpanHandle]:
        """Open a span; pair with :meth:`end`.  ``None`` when disabled."""
        if not self.enabled:
            return None
        return _SpanHandle(name, phase, self.clock(), track, args)

    def end(self, handle: Optional[_SpanHandle], **extra_args) -> None:
        """Close a span opened by :meth:`begin` (``None`` is a no-op, so
        callers need no disabled-path branch of their own)."""
        if handle is None:
            return
        if extra_args:
            handle.args.update(extra_args)
        self._store(
            Span(
                name=handle.name,
                phase=handle.phase,
                start=handle.start,
                end=self.clock(),
                track=handle.track,
                args=handle.args,
            )
        )

    def record(
        self,
        name: str,
        phase: str,
        start: float,
        end: float,
        track: int = 0,
        **args,
    ) -> None:
        """Store a pre-measured interval (caller-supplied clock, e.g.
        the pipeline executor's virtual device time)."""
        if not self.enabled:
            return
        self._store(Span(name, phase, start, end, track, args))

    def _store(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # -- lifecycle -------------------------------------------------------
    def clear(self) -> None:
        self.spans = []
        self.dropped = 0

    # -- aggregation -----------------------------------------------------
    def phase_seconds(self) -> dict[str, float]:
        """Total span seconds per phase tag (untagged spans under "")."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.phase] = totals.get(span.phase, 0.0) + span.duration
        return totals

    # -- exporters -------------------------------------------------------
    def to_jsonl(self, path) -> None:
        """One JSON object per line, in recording order — the diffable /
        deterministic format (sorted keys, no timestamps beyond the
        spans' own clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")

    def to_chrome(self, path) -> None:
        """Chrome ``trace_event`` JSON — open in ``about:tracing`` or
        https://ui.perfetto.dev.  Spans become complete ("X") events;
        the phase tag is the category, the track the tid."""
        events = [
            {
                "name": span.name,
                "cat": span.phase or "untagged",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": span.track,
                "args": span.args,
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class NullTracer(Tracer):
    """Permanently disabled tracer — the module default, so instrumented
    call sites need no None checks and pay one attribute read when
    tracing is off."""

    def __init__(self) -> None:
        super().__init__(enabled=False, max_spans=1)


NULL_TRACER = NullTracer()

_tracer: Tracer = NULL_TRACER


def tracer() -> Tracer:
    """The installed process-global tracer (default: :data:`NULL_TRACER`)."""
    return _tracer


def set_tracer(new: Optional[Tracer]) -> Tracer:
    """Install ``new`` as the process-global tracer (``None`` restores
    the null tracer); returns the previously installed one."""
    global _tracer
    previous = _tracer
    _tracer = new if new is not None else NULL_TRACER
    return previous


def load_jsonl(path) -> list[Span]:
    """Read spans back from a :meth:`Tracer.to_jsonl` file."""
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def spans_from_chrome(path) -> list[Span]:
    """Read spans back from a :meth:`Tracer.to_chrome` file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    spans = []
    for event in data.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        start = event["ts"] / 1e6
        spans.append(
            Span(
                name=event["name"],
                phase=event.get("cat", ""),
                start=start,
                end=start + event.get("dur", 0.0) / 1e6,
                track=event.get("tid", 0),
                args=event.get("args", {}),
            )
        )
    return spans


def iter_spans(source) -> Iterable[Span]:
    """Normalize a tracer / span list / dict list into Span objects."""
    if isinstance(source, Tracer):
        return source.spans
    out = []
    for item in source:
        out.append(item if isinstance(item, Span) else Span.from_dict(item))
    return out
