"""Discrete step-grid simulator for pipeline schedules.

The closed forms in :mod:`.schedules` are validated against this
simulator: it builds the actual task grid (device x time) for each
schedule, enforcing micro-batch dependencies and device exclusivity,
and reports the makespan.  Tests assert the paper's quoted step counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .schedules import PipelineConfig, PipelineKind


@dataclass(frozen=True)
class Task:
    """One forward or backward slot of a micro-batch on a device."""

    device: int
    start: float
    end: float
    kind: str  # "fw" | "bw"
    micro_batch: int
    stage: int
    pipeline: str = "down"  # Chimera runs a second, "up", pipeline
    batch: int = 0


@dataclass
class Timeline:
    """A completed schedule with validity checks."""

    tasks: list[Task] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        if not self.tasks:
            return 0.0
        return max(task.end for task in self.tasks)

    def device_tasks(self, device: int) -> list[Task]:
        return sorted(
            (t for t in self.tasks if t.device == device), key=lambda t: t.start
        )

    def validate(self) -> None:
        """Raise if any device runs two tasks at once."""
        for device in {t.device for t in self.tasks}:
            ordered = self.device_tasks(device)
            for prev, cur in zip(ordered, ordered[1:]):
                if cur.start < prev.end - 1e-9:
                    raise AssertionError(
                        f"device {device} overlap: {prev} vs {cur}"
                    )

    @classmethod
    def from_spans(cls, spans) -> "Timeline":
        """Rebuild a timeline from executor trace spans.

        The executor records each ``pipe.fw`` / ``pipe.bw`` slot as a
        span whose times are the *virtual device clock* (``track`` is
        the stage), so a timeline reconstructed from a trace renders
        identically to the one the executor built live — the invariant
        ``tests/obs`` pins.  Accepts ``repro.obs`` ``Span`` objects or
        their ``to_dict`` rows; non-``pipe.*`` spans are ignored.
        """
        tasks = []
        for span in spans:
            row = span if isinstance(span, dict) else span.to_dict()
            name = row.get("name", "")
            if not name.startswith("pipe."):
                continue
            args = row.get("args", {})
            stage = row.get("track", 0)
            tasks.append(
                Task(
                    device=stage,
                    start=row["start"],
                    end=row["end"],
                    kind=name.split(".", 1)[1],
                    micro_batch=args.get("micro", 0),
                    stage=stage,
                    batch=args.get("batch", 0),
                )
            )
        tasks.sort(key=lambda task: (task.start, task.device))
        return cls(tasks)


def render_timeline(
    timeline: Timeline,
    num_devices: int,
    width: Optional[int] = None,
    label_by: str = "micro_batch",
) -> str:
    """ASCII step grid of a timeline: one row per device.

    Forward slots are digits, backward slots letters, both labelled by
    ``label_by`` (``"micro_batch"`` for single-batch simulator grids,
    ``"batch"`` for measured multi-batch runs).  ``width`` defaults to
    one cell per time step (integer-step simulator timelines); measured
    timelines have sub-second spans, so pass an explicit width to get a
    readable scaled grid.
    """
    span = timeline.makespan
    if span <= 0:
        return "(empty timeline)"
    if width is None:
        width = max(int(round(span)), 1)
    scale = width / span
    rows = []
    for device in range(num_devices):
        cells = ["."] * width
        for task in timeline.device_tasks(device):
            index = getattr(task, label_by) % 10
            label = str(index) if task.kind == "fw" else chr(ord("a") + index)
            lo = int(task.start * scale)
            hi = min(max(int(task.end * scale), lo + 1), width)
            for cell in range(lo, hi):
                cells[cell] = label
        rows.append(f"  device{device}: " + "".join(cells))
    return "\n".join(rows)


OpLists = list[list[tuple[str, int]]]


def stage_op_lists(
    kind: PipelineKind, config: PipelineConfig, backward: bool = True
) -> OpLists:
    """Per-stage ``(op, micro)`` order of one batch — the one place the
    GPipe and DAPPLE orderings are written; simulator and executor both
    walk it.  ``backward=False`` is a Phase-GP forward-only stream."""
    stages, micro = config.num_stages, config.micro_batches
    forwards = [("fw", m) for m in range(micro)]
    if not backward:
        return [list(forwards) for _ in range(stages)]
    if kind == PipelineKind.GPIPE:
        # All forwards, flush, all backwards.
        return [forwards + [("bw", m) for m in range(micro)] for _ in range(stages)]
    if kind != PipelineKind.DAPPLE:
        raise ValueError(f"no per-stage op order for {kind}; see simulate_chimera")
    # DAPPLE / 1F1B: warm-up forwards, then alternate BW/FW.
    op_lists: OpLists = []
    for s in range(stages):
        warmup = min(stages - s, micro)
        ops = forwards[:warmup]
        next_fw = warmup
        for next_bw in range(micro):
            ops.append(("bw", next_bw))
            if next_fw < micro:
                ops.append(("fw", next_fw))
                next_fw += 1
        op_lists.append(ops)
    return op_lists


def place_op_lists(
    op_lists: OpLists,
    run: Callable[[str, int, int], float],
    device_free: list[float],
    batch: int = 0,
) -> list[Task]:
    """Walk per-stage op lists under the pipeline's data dependencies.

    ``fw(s, m)`` waits for ``fw(s-1, m)``; ``bw(s, m)`` for ``bw(s+1, m)``
    (for ``fw(s, m)`` at the last stage).  The moment an op's dependency
    is complete ``run(op, stage, micro)`` is called — a constant for the
    simulator, real compute returning its measured seconds for the
    executor — and the slot is placed on its stage's device at
    ``max(dependency end, device_free[stage])``.  ``device_free`` is
    updated in place, so consecutive batches stream into each other.
    """
    stages = len(op_lists)
    done: dict[tuple[str, int, int], float] = {}
    position = [0] * stages
    tasks: list[Task] = []
    remaining = sum(len(ops) for ops in op_lists)
    while remaining:
        progressed = False
        for s in range(stages):
            while position[s] < len(op_lists[s]):
                op, m = op_lists[s][position[s]]
                if op == "fw":
                    dep = ("fw", s - 1, m) if s > 0 else None
                else:
                    dep = ("fw", s, m) if s == stages - 1 else ("bw", s + 1, m)
                if dep is not None and dep not in done:
                    break
                start = max(done[dep] if dep else 0.0, device_free[s])
                end = start + run(op, s, m)
                done[(op, s, m)] = device_free[s] = end
                tasks.append(Task(s, start, end, op, m, s, batch=batch))
                position[s] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise RuntimeError("pipeline op schedule deadlocked")
    return tasks


def _simulate(
    kind: PipelineKind,
    config: PipelineConfig,
    tf: float,
    tb: float,
    batch: int,
    device_free: Optional[list[float]],
) -> Timeline:
    free = list(device_free) if device_free is not None else [0.0] * config.num_stages
    durations = {"fw": tf, "bw": tb}
    timeline = Timeline(
        place_op_lists(
            stage_op_lists(kind, config), lambda op, s, m: durations[op], free, batch
        )
    )
    timeline.validate()
    return timeline


def simulate_gpipe(
    config: PipelineConfig,
    tf: float = 1.0,
    tb: float = 2.0,
    batch: int = 0,
    device_free: Optional[list[float]] = None,
) -> Timeline:
    """GPipe: all forwards, flush, all backwards (paper Fig 10a)."""
    return _simulate(PipelineKind.GPIPE, config, tf, tb, batch, device_free)


def simulate_dapple(
    config: PipelineConfig,
    tf: float = 1.0,
    tb: float = 2.0,
    batch: int = 0,
    device_free: Optional[list[float]] = None,
) -> Timeline:
    """DAPPLE / 1F1B: early backward scheduling (paper Fig 11a).

    Same critical path as GPipe for one batch; the op order per device
    differs (warm-up forwards, then alternating BW/FW).
    """
    return _simulate(PipelineKind.DAPPLE, config, tf, tb, batch, device_free)


def simulate_chimera(
    config: PipelineConfig,
    tf: float = 1.0,
    tb: float = 2.0,
    batch: int = 0,
    device_free: Optional[list[float]] = None,
) -> Timeline:
    """Chimera: two half-size pipelines in opposite directions (Fig 12a).

    The down pipeline maps stage s to device s; the up pipeline maps
    stage s to device S-1-s.  Each direction carries M/2 micro-batches
    with 1F1B ordering; a device interleaves the two directions' ops,
    bw-first, which fills the bubbles and yields the paper's 16 steps
    for S=M=4, tb=2*tf.
    """
    stages, micro = config.num_stages, config.micro_batches
    if stages % 2 or micro % 2:
        raise ValueError("Chimera needs even stages and micro-batches")
    half = micro // 2
    # Tasks: (pipeline, kind, stage, micro) with 1F1B order per pipeline.
    # Dependencies are the usual chains within each pipeline.
    done: dict[tuple[str, str, int, int], float] = {}
    device_free = list(device_free) if device_free is not None else [0.0] * stages
    timeline = Timeline()

    def device_of(pipeline: str, stage: int) -> int:
        return stage if pipeline == "down" else stages - 1 - stage

    def ready_time(pipeline: str, kind: str, stage: int, m: int) -> Optional[float]:
        if kind == "fw":
            if stage == 0:
                return 0.0
            return done.get((pipeline, "fw", stage - 1, m))
        if stage == stages - 1:
            return done.get((pipeline, "fw", stage, m))
        return done.get((pipeline, "bw", stage + 1, m))

    pending: list[tuple[str, str, int, int]] = [
        (pipe, kind, s, m)
        for pipe in ("down", "up")
        for kind in ("fw", "bw")
        for s in range(stages)
        for m in range(half)
    ]
    # Greedy list scheduling: repeatedly run the ready task whose start
    # would be earliest; ties prefer backward work (Chimera's rule) and
    # lower micro-batch index, which reproduces the published schedule.
    while pending:
        best = None
        for item in pending:
            pipe, kind, stage, m = item
            ready = ready_time(pipe, kind, stage, m)
            if ready is None:
                continue
            device = device_of(pipe, stage)
            start = max(ready, device_free[device])
            key = (start, 0 if kind == "bw" else 1, m, pipe)
            if best is None or key < best[0]:
                best = (key, item, start, device)
        if best is None:
            raise RuntimeError("Chimera schedule deadlocked")
        _key, item, start, device = best
        pipe, kind, stage, m = item
        duration = tf if kind == "fw" else tb
        done[item] = start + duration
        device_free[device] = start + duration
        timeline.tasks.append(
            Task(device, start, start + duration, kind, m, stage, pipe, batch)
        )
        pending.remove(item)
    timeline.validate()
    return timeline


def simulate_gp_stream(
    config: PipelineConfig, num_batches: int, tf: float = 1.0
) -> Timeline:
    """Phase GP: forward-only batches streaming with no flush (Fig 10b)."""
    op_lists = stage_op_lists(PipelineKind.GPIPE, config, backward=False)
    device_free = [0.0] * config.num_stages
    timeline = Timeline()
    for batch in range(num_batches):
        timeline.tasks += place_op_lists(
            op_lists, lambda op, s, m: tf, device_free, batch
        )
    timeline.validate()
    return timeline


def simulate_gp_then_bp(
    kind: PipelineKind, config: PipelineConfig, tf: float = 1.0, tb: float = 2.0
) -> Timeline:
    """One GP batch then one BP batch (the Fig 10c/11c/12c transitions).

    The BP batch is scheduled with each device becoming available only
    once the GP stream frees it, so the BP fill overlaps the GP drain.
    For GPipe/DAPPLE/Chimera at S=M=4, tb=2tf this lands at 25/25/20
    steps — the paper's transition costs.
    """
    stages, micro = config.num_stages, config.micro_batches
    gp = simulate_gp_stream(config, 1, tf)
    if kind != PipelineKind.CHIMERA:
        gp_free = [
            max(t.end for t in gp.device_tasks(d)) for d in range(stages)
        ]
        bp = _simulate(kind, config, tf, tb, batch=1, device_free=gp_free)
    else:
        # Chimera streams GP batches bidirectionally (Fig 12b), so in
        # steady state every device runs M forward slots per batch and
        # frees at M*tf simultaneously; the merged timeline below keeps
        # the (unidirectional) GP tasks for illustration only and the
        # makespan is governed by the BP batch.
        gp_free = [float(micro * tf)] * stages
        bp = simulate_chimera(config, tf, tb, batch=1, device_free=gp_free)
        merged = Timeline(tasks=list(bp.tasks))
        merged.validate()
        return merged
    merged = Timeline(tasks=list(gp.tasks) + list(bp.tasks))
    merged.validate()
    return merged
