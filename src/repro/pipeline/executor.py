"""Event-driven micro-batch executor for real NumPy pipeline stages.

Where :mod:`.simulator` *models* GPipe/DAPPLE schedules with abstract
``tf``/``tb`` step costs, this module *executes* them: the model is split
into stage sub-models (:mod:`.partition`), each stage owns a virtual
device clock, and every forward/backward micro-batch slot runs real
NumPy compute whose duration is measured on the installed tracer's
clock (``repro.obs.tracer().clock`` — inject a counting fake and the
timeline is deterministic).  The op order per stage and the walk that
places a slot on its device at ``max(dependency ready time, device free
time)`` are the simulator's own (:func:`~.simulator.stage_op_lists`,
:func:`~.simulator.place_op_lists`; only the slot's duration differs: a
constant there, measured compute here) — so the resulting
:class:`~repro.pipeline.simulator.Timeline` is a *measurement* of the
schedule (Fig 20 as measurement, not simulation), while
:meth:`Timeline.validate` and :func:`validate_dependencies`, the
independent oracle, keep the ordering honest.

Semantics notes:

* Stages execute sequentially in one process; the parallelism lives in
  the virtual clocks, which is exactly what the makespan measurement
  needs (real durations, schedule-accurate placement).
* BP batches scale each micro-batch's loss gradient by
  ``micro/batch``, so accumulated parameter gradients equal one
  full-batch backward for mean-reduction losses.  (BatchNorm batch
  statistics are still per-micro-batch — inherent to micro-batched
  pipelines.)
* A module keeps what its backward needs in one slot (``_saved``), so
  the executor copies each stage module's ``_saved`` pointer after a
  forward and puts it back before the matching backward, letting GPipe
  run all forwards before any backward without activation
  recomputation.
* Device clocks persist across batches, so a Phase-GP batch's
  forward-only micro-batches stream into the bubbles left by adjacent
  batches — the §3.7 overlap the analytical model charges as ``M*tf``
  per GP batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..nn.layers.core import Sequential
from ..nn.losses import loss_value
from ..nn.module import Module
from ..obs.trace import BP, GP, current_phase, tracer as _obs_tracer
from .partition import StagePlan, partition_sequential
from .schedules import PipelineConfig, PipelineKind
from .simulator import Task, Timeline, place_op_lists, stage_op_lists

LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


def validate_dependencies(timeline: Timeline) -> None:
    """Raise if any task starts before its pipeline dependencies finish.

    Checks the simulator's dependency rules on a measured timeline:
    ``fw(s, m)`` after ``fw(s-1, m)``; ``bw(s, m)`` after ``bw(s+1, m)``
    (after ``fw(s, m)`` at the last stage) — per batch.
    """
    if not timeline.tasks:
        return
    last_stage = max(task.stage for task in timeline.tasks)
    done: dict[tuple[int, str, int, int], float] = {}
    for task in timeline.tasks:
        done[(task.batch, task.kind, task.stage, task.micro_batch)] = task.end
    eps = 1e-9
    for task in timeline.tasks:
        key = (task.batch, task.kind, task.stage, task.micro_batch)
        if task.kind == "fw":
            if task.stage == 0:
                continue
            dep = (task.batch, "fw", task.stage - 1, task.micro_batch)
        elif task.stage == last_stage:
            dep = (task.batch, "fw", task.stage, task.micro_batch)
        else:
            dep = (task.batch, "bw", task.stage + 1, task.micro_batch)
        if dep not in done:
            raise AssertionError(f"task {key} has no completed dependency {dep}")
        if task.start < done[dep] - eps:
            raise AssertionError(
                f"task {key} starts at {task.start} before dependency "
                f"{dep} ends at {done[dep]}"
            )


@dataclass
class BatchRun:
    """Outcome of one executed batch on the pipeline."""

    kind: str  # "bp" | "gp"
    loss: float
    tasks: list[Task] = field(default_factory=list)

    @property
    def compute_time(self) -> float:
        """Sum of measured slot durations — the single-device cost."""
        return sum(task.end - task.start for task in self.tasks)

    @property
    def start(self) -> float:
        return min(task.start for task in self.tasks)

    @property
    def end(self) -> float:
        return max(task.end for task in self.tasks)


class PipelineExecutor:
    """Runs training batches on stage-partitioned models with measured
    per-stage virtual device clocks (GPipe or DAPPLE task ordering)."""

    def __init__(
        self,
        stages: Sequence[Sequential],
        micro_batches: int = 4,
        kind: PipelineKind = PipelineKind.GPIPE,
        plan: Optional[StagePlan] = None,
    ) -> None:
        if kind == PipelineKind.CHIMERA:
            raise ValueError(
                "the executor runs GPipe/DAPPLE orderings; Chimera's "
                "bidirectional mapping needs two model replicas per device"
            )
        self.stages = list(stages)
        self.config = PipelineConfig(
            num_stages=len(self.stages), micro_batches=micro_batches
        )
        self.kind = kind
        self.plan = plan
        self.timeline = Timeline()
        self.device_free = [0.0] * len(self.stages)
        self.batches_run = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model: Sequential,
        num_stages: int,
        input_shape: Sequence[int],
        micro_batches: int = 4,
        kind: PipelineKind = PipelineKind.GPIPE,
    ) -> "PipelineExecutor":
        """Partition ``model`` (accel cost model) and build an executor."""
        stages, plan = partition_sequential(model, num_stages, input_shape)
        return cls(stages, micro_batches=micro_batches, kind=kind, plan=plan)

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    def validate(self) -> None:
        """Device exclusivity + dependency ordering of the whole run."""
        self.timeline.validate()
        validate_dependencies(self.timeline)

    # ------------------------------------------------------------------
    # Per-micro-batch stage state: a module saves for backward in one
    # slot, so interleaved micro-batches each keep their own pointers.
    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot(stage: Sequential) -> list[tuple[Module, object]]:
        return [(module, module._saved) for module in stage.modules()]

    @staticmethod
    def _restore(snap: list[tuple[Module, object]]) -> None:
        for module, saved in snap:
            module._saved = saved

    # ------------------------------------------------------------------
    def _split(self, array: np.ndarray) -> list[np.ndarray]:
        micro = self.config.micro_batches
        if array.shape[0] < micro:
            raise ValueError(
                f"batch of {array.shape[0]} cannot fill {micro} micro-batches"
            )
        return np.array_split(array, micro, axis=0)

    # ------------------------------------------------------------------
    def _run_ops(
        self,
        micro_inputs: list[np.ndarray],
        micro_targets: Optional[list[np.ndarray]],
        loss_fn: Optional[LossFn],
        backward: bool,
    ) -> BatchRun:
        """Run one batch: the simulator's per-stage op lists walked by
        the simulator's own dependency loop, with real stage compute as
        the slot and its measured seconds as the duration."""
        last = self.config.num_stages - 1
        total = sum(x.shape[0] for x in micro_inputs)
        acts: dict[tuple[int, int], np.ndarray] = {}
        grads: dict[tuple[int, int], np.ndarray] = {}
        snaps: dict[tuple[int, int], list] = {}
        loss_grads: dict[int, np.ndarray] = {}
        losses: dict[int, float] = {}
        tracer = _obs_tracer()
        clock = tracer.clock

        def run(op: str, s: int, m: int) -> float:
            stage = self.stages[s]
            if op == "bw":
                self._restore(snaps[(s, m)])
                grad_out = loss_grads[m] if s == last else grads[(s + 1, m)]
                t0 = clock()
                grads[(s, m)] = stage.backward(grad_out)
                return clock() - t0
            x = micro_inputs[m] if s == 0 else acts[(s - 1, m)]
            t0 = clock()
            out = stage(x)
            duration = clock() - t0
            # Loss evaluation stays outside the timed slot: the schedule
            # models fw/bw work only, and GP batches compute it purely
            # for monitoring.
            if s == last and loss_fn is not None and micro_targets is not None:
                if backward:
                    loss, grad = loss_fn(out, micro_targets[m])
                    losses[m] = float(loss)
                    # Mean-reduction losses: rescale so the sum of
                    # micro-batch gradients equals one full-batch backward.
                    loss_grads[m] = grad * (x.shape[0] / total)
                else:
                    # Forward-only stream: value-only loss, no gradient
                    # tensor allocated and discarded.
                    losses[m] = loss_value(loss_fn, out, micro_targets[m])
            acts[(s, m)] = out
            if backward:
                snaps[(s, m)] = self._snapshot(stage)
            return duration

        tasks = place_op_lists(
            stage_op_lists(self.kind, self.config, backward),
            run,
            self.device_free,
            batch=self.batches_run,
        )
        self.timeline.tasks.extend(tasks)
        if tracer.enabled:
            # Spans carry the *virtual device clock* times (the
            # Timeline's numbers), so trace and ASCII timeline agree
            # exactly; the phase tag follows the engine's scope (bp for
            # backward batches, gp for forward-only streams without one).
            span_phase = current_phase(BP if backward else GP)
            for task in tasks:
                tracer.record(
                    f"pipe.{task.kind}",
                    span_phase,
                    task.start,
                    task.end,
                    track=task.stage,
                    micro=task.micro_batch,
                    batch=task.batch,
                )
        self.batches_run += 1
        if losses:
            loss = float(
                sum(losses[m] * micro_inputs[m].shape[0] for m in losses) / total
            )
        else:
            loss = float("nan")
        return BatchRun(kind="bp" if backward else "gp", loss=loss, tasks=tasks)

    # ------------------------------------------------------------------
    def run_bp_batch(
        self, inputs: np.ndarray, targets: np.ndarray, loss_fn: LossFn
    ) -> BatchRun:
        """One backprop batch under the configured schedule's ordering.

        Parameter gradients accumulate across micro-batches exactly as a
        full-batch backward would; the caller steps the optimizer.
        """
        return self._run_ops(
            self._split(inputs), self._split(targets), loss_fn, backward=True
        )

    def run_gp_batch(
        self,
        inputs: np.ndarray,
        targets: Optional[np.ndarray] = None,
        loss_fn: Optional[LossFn] = None,
    ) -> BatchRun:
        """One Phase-GP batch: forward-only micro-batches streaming with
        no flush.  Predictor work (the strategy's tap: predict + apply)
        runs inside the measured forward slots, so the paper's alpha
        overhead is part of the measurement.  ``loss_fn`` is for
        monitoring only."""
        return self._run_ops(
            self._split(inputs),
            self._split(targets) if targets is not None else None,
            loss_fn,
            backward=False,
        )
