"""Preconfigured engines for the three training schemes of the paper.

These factories are the one place that knows how to wire strategies,
schedules, optimizers and the shared predictor into a
:class:`TrainingEngine`: BP, ADA-GP and its pipelined variant are
wirings of the one loop.  Examples,
experiments and benchmarks build their engines here.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ... import nn
from ...nn.backend import BackendSpec
from ...nn.graph import trace
from ...nn.module import Module
from ...nn.optim import MultiStepLR, Optimizer, ReduceLROnPlateau
from ..predictor import GradientPredictor
from ..schedule import HeuristicSchedule, Phase
from .engine import LossFn, MetricFn, TrainingEngine
from .events import Callback
from .strategies import BackpropStrategy, GradPredictStrategy, PipelineGPStrategy


def bp_engine(
    model: Module,
    loss_fn: LossFn,
    optimizer: Optional[Optimizer] = None,
    lr: float = 1e-3,
    metric_fn: Optional[MetricFn] = None,
    plateau_scheduler: bool = True,
    callbacks: Iterable[Callback] = (),
    backend: Optional[BackendSpec] = None,
) -> TrainingEngine:
    """Plain backpropagation (the paper's comparison point)."""
    optimizer = optimizer or nn.SGD(model.parameters(), lr=lr, momentum=0.9)
    return TrainingEngine(
        model,
        loss_fn,
        optimizer,
        strategies=BackpropStrategy(),
        metric_fn=metric_fn,
        lr_scheduler=ReduceLROnPlateau(optimizer) if plateau_scheduler else None,
        callbacks=callbacks,
        backend=backend,
    )


def adagp_engine(
    model: Module,
    loss_fn: LossFn,
    optimizer: Optional[Optimizer] = None,
    predictor: Optional[GradientPredictor] = None,
    schedule=None,
    lr: float = 1e-3,
    predictor_lr: float = 1e-4,
    metric_fn: Optional[MetricFn] = None,
    plateau_scheduler: bool = True,
    gp_optimizer: Optional[Optimizer] = None,
    batched_gp: bool = True,
    callbacks: Iterable[Callback] = (),
    backend: Optional[BackendSpec] = None,
    all_layers: bool = False,
) -> TrainingEngine:
    """ADA-GP: warm-up / Phase BP / Phase GP under a phase schedule.

    The predictor serves the module table's
    :attr:`~repro.nn.graph.ModuleTable.served` layers: the predictable
    layers no BatchNorm follows.  A BN-fed layer's weight gradient is
    within-batch covariance that batch means cannot predict, so in
    Phase GP its weight and bias *coast*: they take a zero gradient
    through ``gp_optimizer``, which with momentum SGD is the momentum
    step alone.  The predictor is sized, trained and tapped for the
    served layers only; every other parameter (BatchNorm γ/β,
    embeddings, LayerNorm) gets no Phase-GP update.  A model with no
    BatchNorm serves every predictable layer.  ``all_layers=True`` is
    the paper's arm (§3.6): one predictor serves every predictable
    layer and nothing coasts.

    ``gp_optimizer`` is the optimizer used to *apply* predicted
    gradients in Phase GP.  The accelerator applies in-flight updates
    with a plain MAC datapath (SGD-style, §3.7/§4.2); when the software
    optimizer is Adam, pass an SGD instance here to mirror the hardware
    — Adam's per-element normalization would otherwise blow small
    predicted gradients up into full-size steps.

    A Phase-GP batch taps every served layer's output during the
    no-grad forward, then predicts them in one stacked
    ``predict_many`` call and applies them, with the coast, in one
    grouped ``gp_optimizer`` apply.  §3.4's per-layer in-flight updates are a
    hardware overlap: on one device each layer's update lands on the
    same weights after the forward.  ``batched_gp`` accepts only
    ``True`` (``bench/workloads.py`` still passes it); in-flight updates
    run on :func:`pipeline_adagp_engine`, where each predict sits inside
    its measured stage slot.

    ``backend`` selects the compute backend for every batch.
    """
    if not batched_gp:
        raise ValueError(
            "adagp_engine applies every Phase-GP update after the forward; "
            "per-layer in-flight updates run on pipeline_adagp_engine"
        )
    table = trace(model)
    if not (table.predictable if all_layers else table.served):
        raise ValueError("model has no predictable layers for ADA-GP to serve")
    optimizer = optimizer or nn.SGD(model.parameters(), lr=lr, momentum=0.9)
    predictor = predictor or GradientPredictor.for_model(
        model, all_layers=all_layers, lr=predictor_lr
    )
    bp_strategy = BackpropStrategy(train_predictor=True)
    return TrainingEngine(
        model,
        loss_fn,
        optimizer,
        strategies={
            Phase.WARMUP: bp_strategy,
            Phase.BP: bp_strategy,
            Phase.GP: GradPredictStrategy(),
        },
        schedule=schedule or HeuristicSchedule(),
        metric_fn=metric_fn,
        lr_scheduler=ReduceLROnPlateau(optimizer) if plateau_scheduler else None,
        predictor=predictor,
        gp_optimizer=gp_optimizer,
        predictor_scheduler=MultiStepLR(predictor.optimizer, milestones=[20, 40]),
        callbacks=callbacks,
        backend=backend,
        all_layers=all_layers,
    )


def pipeline_adagp_engine(
    model: Module,
    loss_fn: LossFn,
    num_stages: int = 2,
    micro_batches: int = 4,
    kind: str = "GPipe",
    **adagp_kwargs,
) -> TrainingEngine:
    """ADA-GP on a stage-partitioned pipeline (§3.7, measured Fig 20).

    :func:`adagp_engine` (every other keyword flows to it) with its
    strategy table swapped for one :class:`PipelineGPStrategy`: identical
    phase semantics, but every batch — BP and GP alike — executes on the
    micro-batch pipeline executor, one strategy for all phases so the
    per-stage device clocks stay continuous and the engine-level backend
    scope covers the stage compute.  The measured timeline is at
    ``engine.strategies[Phase.GP].executor.timeline``.

    ``model`` must be a top-level :class:`~repro.nn.Sequential` (what
    :func:`repro.models.build_mini` returns); the split happens lazily
    on the first training batch, balanced by the accel cost model.
    """
    if "batched_gp" in adagp_kwargs:
        raise ValueError(
            "pipeline_adagp_engine takes no batched_gp: its Phase-GP "
            "updates fire in flight, stage by stage"
        )
    engine = adagp_engine(model, loss_fn, **adagp_kwargs)
    strategy = PipelineGPStrategy(
        num_stages=num_stages, micro_batches=micro_batches, kind=kind
    )
    engine.strategies = {phase: strategy for phase in Phase}
    strategy.bind(engine)
    return engine
