"""Multi-device pipeline training with ADA-GP (paper §3.8 / §6.5), modelled
and then measured.

Part 1 renders the *analytical* step grids of GPipe, DAPPLE and Chimera
on 4 devices (the paper's Figs 10-12), shows how a Phase-GP stream fills
every bubble, and sweeps the Fig 20 speedups for a few models.

Part 2 executes it (Fig 20 as measurement): a stage-partitioned ResNet
mini on the event-driven micro-batch executor — 4 virtual devices, GPipe
ordering, Phase-GP streams filling the bubbles, per-slot durations
measured from real NumPy compute.

Run:  PYTHONPATH=src python examples/pipeline_parallel_training.py
"""

import numpy as np

from repro.accel import AdaGPDesign
from repro.core import HeuristicSchedule, Phase, pipeline_adagp_engine
from repro.experiments.fig20_pipeline import (
    format_fig20_measured,
    run_fig20_measured,
)
from repro.experiments.formats import format_table
from repro.models import build_mini, spec_for
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.pipeline import (
    PipelineConfig,
    PipelineKind,
    pipeline_speedup,
    render_timeline,
    simulate_chimera,
    simulate_dapple,
    simulate_gp_stream,
    simulate_gp_then_bp,
    simulate_gpipe,
)

NUM_STAGES = 4
MICRO_BATCHES = 4
BATCH = 32


def render(timeline, title: str) -> None:
    """Print a simulated step grid: one cell per step, one row per device."""
    print(title)
    print(render_timeline(timeline, NUM_STAGES))
    print(f"  makespan: {timeline.makespan:.0f} steps "
          "(digits = FW micro-batch, letters = BW)")
    print()


def analytical() -> None:
    config = PipelineConfig(num_stages=NUM_STAGES, micro_batches=MICRO_BATCHES)

    render(simulate_gpipe(config), "GPipe, one batch (paper: 21 steps)")
    render(simulate_dapple(config), "DAPPLE / 1F1B, one batch (paper: 21 steps)")
    render(simulate_chimera(config), "Chimera, one batch (paper: 16 steps)")
    render(
        simulate_gp_stream(config, 3),
        "ADA-GP Phase GP: three batches stream with no bubbles (Fig 10b)",
    )
    render(
        simulate_gp_then_bp(PipelineKind.GPIPE, config),
        "GP batch followed by BP batch on GPipe (paper: 25 steps, Fig 10c)",
    )

    rows = []
    for name in ("ResNet50", "VGG16", "DenseNet201", "MobileNet-V2"):
        spec = spec_for(name, "ImageNet")
        cells = [name]
        for kind in PipelineKind:
            cells.append(
                pipeline_speedup(
                    spec, kind, AdaGPDesign.MAX, epochs=90, batches_per_epoch=20
                )
            )
        rows.append(cells)
    print(
        format_table(
            ["Model", "over GPipe", "over DAPPLE", "over Chimera"],
            rows,
            title="ADA-GP-MAX speedup on 4 devices (Fig 20 excerpt)",
        )
    )
    print()


def measured() -> None:
    model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
    engine = pipeline_adagp_engine(
        model,
        CrossEntropyLoss(),
        num_stages=NUM_STAGES,
        micro_batches=MICRO_BATCHES,
        kind=PipelineKind.GPIPE.value,
        schedule=HeuristicSchedule(warmup_epochs=1, ladder=((2, (4, 1)),)),
        metric_fn=accuracy,
        plateau_scheduler=False,
    )

    def batches():
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal((BATCH, 3, 16, 16)).astype(np.float32)
            yield x, rng.integers(0, 10, BATCH)

    history = engine.fit(batches, batches, epochs=3)
    executor = engine.strategies[Phase.GP].executor
    executor.validate()
    print("Stage plan (accel cost model):", executor.plan.boundaries,
          f"balance={executor.plan.balance:.2f}")
    print("Train loss per epoch:", [f"{v:.3f}" for v in history.train_loss])
    print("BP/GP batches per epoch:",
          list(zip(history.bp_batches, history.gp_batches)))
    print()
    timeline = executor.timeline
    print("Measured schedule, all epochs (warm-up BP batches, then 4:1 GP:BP):")
    print(render_timeline(timeline, NUM_STAGES, width=76, label_by="batch"))
    print(f"  measured makespan: {timeline.makespan * 1e3:.1f} ms "
          "(digits = FW batch id, letters = BW)")
    print()

    print(format_fig20_measured(run_fig20_measured(
        PipelineKind.GPIPE, models=("ResNet50",), batch=BATCH,
    )))


def main() -> None:
    analytical()
    measured()


if __name__ == "__main__":
    main()
