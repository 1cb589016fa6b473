"""Phase-aware observability: tracing, metrics and profiling hooks.

ADA-GP's whole argument is a *phase-time* argument — the paper
attributes wall time to BP vs. GP vs. predictor work per layer and
per pipeline stage.  ``repro.obs`` makes the reproduction
self-measuring along exactly those axes:

* :mod:`~repro.obs.trace` — span-based :class:`Tracer` with phase tags
  (bp / gp / predictor_train / eval / comm / recovery), injectable
  clock for deterministic tests, bounded buffers, JSONL and Chrome
  ``trace_event`` exporters (open in Perfetto / ``about:tracing``).
* :mod:`~repro.obs.metrics` — ``Counter``/``Gauge``/``Histogram``
  registry (names ``repro_<subsystem>_<name>``) with snapshot / delta /
  cross-rank merge semantics.  Every count has one owner: subsystems
  that keep their own integers (``ThroughputTimer``, ``CommStats``,
  ``WorkspacePool``, fold caches, native dispatch counts, schedule
  MAPE) expose ``metrics()`` and are *read when a snapshot is taken*
  (:meth:`MetricsRegistry.attach`); the registry holds no copy.
* :mod:`~repro.obs.callbacks` — :class:`TracingCallback` /
  :class:`MetricsCallback` attach at the engine callback seam.
* :mod:`~repro.obs.profiler` — opt-in sampling :class:`ProfilingBackend`
  wrapping any backend for the Fig-15 phase×op breakdown.
* ``python -m repro.obs report`` — phase totals, stage occupancy /
  bubble time, phase×op table from a trace + metrics snapshot.

The tracer's clock (:attr:`Tracer.clock`) is the one clock: the
throughput timer, the pipeline executor and the reliable transport all
read it, so an injected counting clock makes their seconds
deterministic.

The default tracer is a no-op (:data:`NULL_TRACER`); instrumented hot
paths pay one attribute check until :func:`set_tracer` installs a real
one.
"""

from .callbacks import MetricsCallback, TracingCallback
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    dump_snapshot,
    load_snapshot,
    merge_snapshots,
    registry,
    set_registry,
)
from .profiler import ProfilingBackend
from .report import (
    phase_op_table,
    phase_totals,
    render_phase_op_table,
    render_phase_totals,
    render_stage_occupancy,
    report_text,
    stage_occupancy,
)
from .trace import (
    BP,
    COMM,
    EVAL,
    GP,
    NULL_TRACER,
    PREDICTOR_TRAIN,
    RECOVERY,
    NullTracer,
    Span,
    Tracer,
    current_phase,
    load_jsonl,
    phase_scope,
    phase_tag,
    set_tracer,
    spans_from_chrome,
    tracer,
)

__all__ = [
    "BP",
    "COMM",
    "EVAL",
    "GP",
    "NULL_TRACER",
    "PREDICTOR_TRAIN",
    "RECOVERY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsCallback",
    "MetricsRegistry",
    "NullTracer",
    "ProfilingBackend",
    "Span",
    "Tracer",
    "TracingCallback",
    "current_phase",
    "dump_snapshot",
    "load_jsonl",
    "load_snapshot",
    "merge_snapshots",
    "phase_op_table",
    "phase_scope",
    "phase_tag",
    "phase_totals",
    "registry",
    "render_phase_op_table",
    "render_phase_totals",
    "render_stage_occupancy",
    "report_text",
    "set_registry",
    "set_tracer",
    "spans_from_chrome",
    "stage_occupancy",
    "tracer",
]
