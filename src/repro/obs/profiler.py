"""Opt-in sampling per-op profiler wrapping backend dispatch.

:class:`ProfilingBackend` wraps any registered backend and times each
protocol op (``conv2d_forward``, ``linear_backward``, ``unfold``, ...),
attributing the time to the phase that is running via
:func:`repro.obs.trace.current_phase` — which the engine pushes around
every batch — and accumulating (phase, op) counts and seconds into the
metrics registry as ``repro_backend_op_calls`` / ``repro_backend_op_seconds``.
That is exactly the data behind the paper's Fig. 15 phase×op breakdown,
rendered by ``python -m repro.obs report``.

Sampling: ``sample_every=N`` times only every Nth call of each op (the
untimed calls still run the op, and still count toward picking the next
sample), scaling the recorded seconds by N so totals stay unbiased
estimates.  ``spans=True`` additionally records a tracer span per timed
op call — heavy, but gives op-level rows inside the Chrome trace.

This is the one ``repro.obs`` module that imports from ``repro``: it
subclasses :class:`repro.nn.backend.base.Backend` because
``resolve_backend`` type-checks backend instances.  ``repro.nn`` has no
imports back into ``repro.obs``, so no cycle.
"""

from __future__ import annotations

from typing import Optional

from ..nn.backend.base import Backend
from .metrics import MetricsRegistry, registry as _default_registry
from .trace import Tracer, current_phase, tracer as _default_tracer

#: Protocol ops that get timed; everything else delegates untouched.
PROFILED_OPS = (
    "unfold",
    "fold",
    "conv2d_forward",
    "conv2d_backward",
    "linear_forward",
    "linear_backward",
    "attn_scores",
    "attn_context",
    "attn_context_t",
    "batchnorm_forward",
    "batchnorm_backward",
    "moments",
    "adaptive_avg_pool2d",
    "adaptive_avg_pool2d_backward",
)


#: Where each context-returning forward op puts its context.
_CTX_INDEX = {"conv2d_forward": 1, "batchnorm_forward": 3}


def _make_op(op_name: str):
    ctx_index = _CTX_INDEX.get(op_name)

    def timed(self, *args, **kwargs):
        inner_op = getattr(self.inner, op_name)
        self._counts[op_name] = count = self._counts.get(op_name, 0) + 1
        if (count - 1) % self.sample_every != 0:
            result = inner_op(*args, **kwargs)
        else:
            phase = current_phase("untagged")
            clock = self._clock
            if self.spans:
                with self._tracer.span(f"op.{op_name}", phase=phase):
                    start = clock()
                    result = inner_op(*args, **kwargs)
                    elapsed = clock() - start
            else:
                start = clock()
                result = inner_op(*args, **kwargs)
                elapsed = clock() - start
            self._op_calls.inc(self.sample_every, phase=phase, op=op_name)
            self._op_seconds.inc(
                elapsed * self.sample_every, phase=phase, op=op_name
            )
        # Forward contexts come back pinned to the inner backend; re-pin
        # to the profiler so the paired backward is timed too.
        ctx = result[ctx_index] if ctx_index is not None else None
        if ctx is not None:
            ctx.backend = self
        return result

    timed.__name__ = op_name
    timed.__doc__ = f"Profiled delegate for Backend.{op_name}."
    return timed


class ProfilingBackend(Backend):
    """Time every protocol op of ``inner``, attributed to (phase, op).

    Parameters
    ----------
    inner:
        The backend doing the actual work.
    registry:
        Metrics registry for the (phase, op) counters; defaults to the
        process-global one.
    tracer:
        Tracer for optional op spans and — always — the profiling
        clock, so an injected deterministic clock makes profiled runs
        reproducible.  Defaults to the process-global tracer.
    sample_every:
        Time 1 in N calls per op (recorded values scaled by N).
    spans:
        Also record a tracer span per timed call.
    """

    def __init__(
        self,
        inner: Backend,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        sample_every: int = 1,
        spans: bool = False,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.inner = inner
        self.sample_every = int(sample_every)
        self.spans = bool(spans)
        self._tracer = tracer if tracer is not None else _default_tracer()
        self._clock = self._tracer.clock
        reg = registry if registry is not None else _default_registry()
        self._op_calls = reg.counter(
            "repro_backend_op_calls", "backend op invocations by (phase, op)"
        )
        self._op_seconds = reg.counter(
            "repro_backend_op_seconds", "backend op seconds by (phase, op)"
        )
        self._counts: dict[str, int] = {}

    # -- non-op protocol surface: plain delegation -----------------------
    def acquire_cols(self, *args, **kwargs):
        return self.inner.acquire_cols(*args, **kwargs)

    def release(self, array) -> None:
        self.inner.release(array)

    def reset_stats(self) -> None:
        self.inner.reset_stats()

    def fold_pipeline(self):
        return self.inner.fold_pipeline()

    def __getattr__(self, name):
        # Anything outside the protocol (e.g. FusedBackend.pool) passes
        # through so duck-typed consumers see the inner backend's state.
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"ProfilingBackend({self.inner!r}, sample_every={self.sample_every})"


for _op in PROFILED_OPS:
    setattr(ProfilingBackend, _op, _make_op(_op))
del _op
