"""Event-driven micro-batch executor for real NumPy pipeline stages.

Where :mod:`.simulator` *models* GPipe/DAPPLE schedules with abstract
``tf``/``tb`` step costs, this module *executes* them: the model is split
into stage sub-models (:mod:`.partition`), each stage owns a virtual
device clock, and every forward/backward micro-batch slot runs real
NumPy compute whose duration is measured on the installed tracer's
clock (``repro.obs.tracer().clock`` — inject a counting fake and the
timeline is deterministic).  A slot is placed on its device at ``max(dependency ready time, device free
time)`` — so the resulting :class:`~repro.pipeline.simulator.Timeline`
is a *measurement* of the schedule (Fig 20 as measurement, not
simulation), while :meth:`Timeline.validate` and
:func:`validate_dependencies` keep the ordering honest against the
simulator's dependency rules.

Semantics notes:

* Stages execute sequentially in one process; the parallelism lives in
  the virtual clocks, which is exactly what the makespan measurement
  needs (real durations, schedule-accurate placement).
* BP batches scale each micro-batch's loss gradient by
  ``micro/batch``, so accumulated parameter gradients equal one
  full-batch backward for mean-reduction losses.  (BatchNorm batch
  statistics are still per-micro-batch — inherent to micro-batched
  pipelines.)
* Because layer caches are single-slot, the executor snapshots each
  stage's private state after a forward and restores it before the
  matching backward, letting GPipe run all forwards before any backward
  without activation recomputation.
* Device clocks persist across batches, so a Phase-GP batch's
  forward-only micro-batches stream into the bubbles left by adjacent
  batches — the §3.7 overlap the analytical model charges as ``M*tf``
  per GP batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..accel.config import AcceleratorConfig
from ..nn.backend import BackendSpec, backend_scope, resolve_backend
from ..nn.layers.core import Sequential
from ..nn.losses import loss_value
from ..nn.module import Module, Parameter
from ..obs.trace import BP, GP, current_phase, tracer as _obs_tracer
from .partition import StagePlan, partition_sequential
from .schedules import PipelineConfig, PipelineKind
from .simulator import Task, Timeline

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
        backend: Optional[BackendSpec] = None,
    ) -> None:
        if kind == PipelineKind.CHIMERA:
            raise ValueError(
                "the executor runs GPipe/DAPPLE orderings; Chimera's "
                "bidirectional mapping needs two model replicas per device"
            )
        self.stages = list(stages)
        # Backend every stage slot computes under.  ``None`` inherits the
        # caller's scope — which is how stages inherit the engine's
        # backend when driven by PipelineGPStrategy; an explicit backend
        # pins standalone (benchmark) runs.
        self.backend = resolve_backend(backend)
        self.config = PipelineConfig(
            num_stages=len(self.stages), micro_batches=micro_batches
        )
        self.kind = kind
        self.plan = plan
        self.timeline = Timeline()
        self.device_free = [0.0] * len(self.stages)
        self.batches_run = 0
        # Micro-batch index currently in flight; forward hooks installed
        # by strategies read this to gate per-micro-batch work.
        self.current_micro: Optional[int] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model: Sequential,
        num_stages: int,
        input_shape: Sequence[int],
        micro_batches: int = 4,
        kind: PipelineKind = PipelineKind.GPIPE,
        batch: int = 1,
        accel_config: Optional[AcceleratorConfig] = None,
        backend: Optional[BackendSpec] = None,
    ) -> "PipelineExecutor":
        """Partition ``model`` (accel cost model) and build an executor."""
        stages, plan = partition_sequential(
            model, num_stages, input_shape, batch=batch, config=accel_config
        )
        return cls(
            stages, micro_batches=micro_batches, kind=kind, plan=plan, backend=backend
        )

    # ------------------------------------------------------------------
    def reset_clock(self) -> None:
        """Forget all measured tasks and device clocks."""
        self.timeline = Timeline()
        self.device_free = [0.0] * len(self.stages)
        self.batches_run = 0

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    def validate(self) -> None:
        """Device exclusivity + dependency ordering of the whole run."""
        self.timeline.validate()
        validate_dependencies(self.timeline)

    # ------------------------------------------------------------------
    # Per-micro-batch stage state (layer caches are single-slot).
    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot(stage: Sequential) -> list[tuple[Module, dict]]:
        snap = []
        for module in stage.modules():
            saved = {
                key: value
                for key, value in module.__dict__.items()
                if key.startswith("_")
                and not isinstance(value, (Parameter, Module))
            }
            if saved:
                snap.append((module, saved))
        return snap

    @staticmethod
    def _restore(snap: list[tuple[Module, dict]]) -> None:
        for module, saved in snap:
            module.__dict__.update(saved)

    # ------------------------------------------------------------------
    def _split(self, array: np.ndarray) -> list[np.ndarray]:
        micro = self.config.micro_batches
        if array.shape[0] < micro:
            raise ValueError(
                f"batch of {array.shape[0]} cannot fill {micro} micro-batches"
            )
        return np.array_split(array, micro, axis=0)

    def _op_lists(self, backward: bool) -> list[list[tuple[str, int]]]:
        stages, micro = self.config.num_stages, self.config.micro_batches
        if not backward:
            return [[("fw", m) for m in range(micro)] for _ in range(stages)]
        if self.kind == PipelineKind.GPIPE:
            return [
                [("fw", m) for m in range(micro)]
                + [("bw", m) for m in range(micro)]
                for _ in range(stages)
            ]
        # DAPPLE / 1F1B: warm-up forwards, then alternate BW/FW.
        op_lists: list[list[tuple[str, int]]] = []
        for s in range(stages):
            warmup = min(stages - s, micro)
            ops: list[tuple[str, int]] = [("fw", m) for m in range(warmup)]
            next_fw, next_bw = warmup, 0
            while next_bw < micro:
                ops.append(("bw", next_bw))
                next_bw += 1
                if next_fw < micro:
                    ops.append(("fw", next_fw))
                    next_fw += 1
            op_lists.append(ops)
        return op_lists

    # ------------------------------------------------------------------
    def _run_ops(
        self,
        op_lists: list[list[tuple[str, int]]],
        micro_inputs: list[np.ndarray],
        micro_targets: Optional[list[np.ndarray]],
        loss_fn: Optional[LossFn],
        backward: bool,
    ) -> BatchRun:
        """Execute per-stage op lists under data dependencies, measuring
        each slot and placing it on the virtual device clocks."""
        with backend_scope(self.backend):
            return self._run_ops_inner(
                op_lists, micro_inputs, micro_targets, loss_fn, backward
            )

    def _run_ops_inner(
        self,
        op_lists: list[list[tuple[str, int]]],
        micro_inputs: list[np.ndarray],
        micro_targets: Optional[list[np.ndarray]],
        loss_fn: Optional[LossFn],
        backward: bool,
    ) -> BatchRun:
        stages = self.config.num_stages
        last = stages - 1
        total = sum(x.shape[0] for x in micro_inputs)
        acts: dict[tuple[int, int], np.ndarray] = {}
        grads: dict[tuple[int, int], np.ndarray] = {}
        snaps: dict[tuple[int, int], list] = {}
        fw_end: dict[tuple[int, int], float] = {}
        bw_end: dict[tuple[int, int], float] = {}
        loss_grads: dict[int, np.ndarray] = {}
        losses: dict[int, float] = {}
        tasks: list[Task] = []
        position = [0] * stages
        remaining = sum(len(ops) for ops in op_lists)
        batch_id = self.batches_run
        # Spans carry the *virtual device clock* times (same numbers as
        # the Timeline), so trace and ASCII timeline agree exactly; the
        # phase tag follows the engine's scope, defaulting to bp for
        # backward batches and gp for forward-only streams.
        tracer = _obs_tracer()
        clock = tracer.clock
        span_phase = current_phase(BP if backward else GP)
        while remaining:
            progressed = False
            for s in range(stages):
                while position[s] < len(op_lists[s]):
                    op, m = op_lists[s][position[s]]
                    if op == "fw":
                        if s > 0 and (s - 1, m) not in acts:
                            break
                        x = micro_inputs[m] if s == 0 else acts[(s - 1, m)]
                        self.current_micro = m
                        t0 = clock()
                        out = self.stages[s](x)
                        duration = clock() - t0
                        # Loss evaluation stays outside the timed slot: the
                        # schedule models fw/bw work only, and GP batches
                        # compute it purely for monitoring.
                        if s == last and loss_fn is not None and micro_targets is not None:
                            if backward:
                                loss, grad = loss_fn(out, micro_targets[m])
                                losses[m] = float(loss)
                                # Mean-reduction losses: rescale so the sum
                                # of micro-batch gradients equals one
                                # full-batch backward.
                                loss_grads[m] = grad * (x.shape[0] / total)
                            else:
                                # Forward-only stream: value-only loss, no
                                # gradient tensor allocated and discarded.
                                losses[m] = loss_value(
                                    loss_fn, out, micro_targets[m]
                                )
                        acts[(s, m)] = out
                        if backward:
                            snaps[(s, m)] = self._snapshot(self.stages[s])
                        ready = fw_end[(s - 1, m)] if s > 0 else 0.0
                    else:
                        if s == last:
                            if (s, m) not in acts:
                                break
                            ready = fw_end[(s, m)]
                            grad_out = loss_grads[m]
                        else:
                            if (s + 1, m) not in grads:
                                break
                            ready = bw_end[(s + 1, m)]
                            grad_out = grads[(s + 1, m)]
                        self._restore(snaps[(s, m)])
                        t0 = clock()
                        grads[(s, m)] = self.stages[s].backward(grad_out)
                        duration = clock() - t0
                    start = max(ready, self.device_free[s])
                    end = start + duration
                    self.device_free[s] = end
                    if op == "fw":
                        fw_end[(s, m)] = end
                    else:
                        bw_end[(s, m)] = end
                    task = Task(s, start, end, op, m, s, batch=batch_id)
                    tasks.append(task)
                    self.timeline.tasks.append(task)
                    if tracer.enabled:
                        tracer.record(
                            f"pipe.{op}",
                            span_phase,
                            start,
                            end,
                            track=s,
                            micro=m,
                            batch=batch_id,
                        )
                    position[s] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:
                raise RuntimeError("pipeline op schedule deadlocked")
        self.current_micro = None
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
            self._op_lists(backward=True),
            self._split(inputs),
            self._split(targets),
            loss_fn,
            backward=True,
        )

    def run_gp_batch(
        self,
        inputs: np.ndarray,
        targets: Optional[np.ndarray] = None,
        loss_fn: Optional[LossFn] = None,
    ) -> BatchRun:
        """One Phase-GP batch: forward-only micro-batches streaming with
        no flush.  Predictor work (predict + apply_gradient hooks
        installed by the strategy) runs inside each measured forward
        slot, so the paper's alpha overhead is part of the measurement.
        ``loss_fn`` is for monitoring only."""
        return self._run_ops(
            self._op_lists(backward=False),
            self._split(inputs),
            self._split(targets) if targets is not None else None,
            loss_fn,
            backward=False,
        )
