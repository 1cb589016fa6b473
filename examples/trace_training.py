"""Trace an ADA-GP run: Chrome trace for Perfetto + phase×op report.

The end-to-end tour of ``repro.obs`` (DESIGN.md §14):

1. train a ResNet50-mini with ADA-GP under an installed tracer — the
   library records phase-tagged fit / epoch / batch / evaluate and
   predictor train / predict spans into it — with the engine attached
   to the metrics registry, which reads every count owner it reaches
   (``ThroughputTimer``, workspace pool, fold caches) whenever a
   snapshot is taken,
2. wrap the compute backend in a ``ProfilingBackend`` so every hot op
   (conv, linear, unfold, …) is timed and attributed to the phase it
   ran under — the software twin of the paper's Fig 15/16 cycle
   characterization,
3. print the per-phase self time (the rows add up to the fit) and the
   phase×op breakdown, and
4. write the trace as Chrome ``trace_event`` JSON — open it at
   https://ui.perfetto.dev (or chrome://tracing) to scrub through
   every batch on a timeline — plus a JSONL trace and a metrics
   snapshot for the offline CLI:

       python -m repro.obs report out.trace.jsonl --metrics out.metrics.json

Run:  python examples/trace_training.py [--trace out.json] [--epochs N]
"""

import argparse
import pathlib

import numpy as np

from repro import obs
from repro.core import HeuristicSchedule, ThroughputTimer, adagp_engine
from repro.data import preset_split
from repro.models import build_mini
from repro.nn.backend import FusedBackend
from repro.nn.losses import CrossEntropyLoss, accuracy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        default="out.json",
        metavar="OUT.json",
        help="write the Chrome trace_event file here (default: out.json)",
    )
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    backend = obs.ProfilingBackend(FusedBackend(), registry=registry)

    split = preset_split("Cifar10", num_train=256, num_val=128, seed=0)
    model = build_mini("ResNet50", 10, rng=np.random.default_rng(1))
    schedule = HeuristicSchedule(warmup_epochs=2, ladder=((3, (3, 1)), (3, (2, 1))))

    print("== Training ResNet50-mini with ADA-GP, tracing on ==")
    engine = adagp_engine(
        model,
        CrossEntropyLoss(),
        lr=0.02,
        metric_fn=accuracy,
        schedule=schedule,
        backend=backend,
        callbacks=[ThroughputTimer()],
    )
    registry.attach(engine)
    previous = obs.set_tracer(tracer)
    try:
        history = engine.fit(
            split.train.epochs(32, 2),
            split.val.epochs(64),
            epochs=args.epochs,
        )
    finally:
        obs.set_tracer(previous)
    print(
        f"best accuracy {history.best_metric:.1f}%, "
        f"{sum(history.gp_batches)} backward passes skipped "
        f"({history.gp_share:.0%})"
    )

    print("\n== Where the time went ==")
    print(obs.report_text(tracer.spans, registry.snapshot()))

    out = pathlib.Path(args.trace)
    tracer.to_chrome(out)
    jsonl = out.with_suffix(".trace.jsonl")
    tracer.to_jsonl(jsonl)
    metrics = out.with_suffix(".metrics.json")
    obs.dump_snapshot(registry.snapshot(), metrics)
    print(f"\nwrote {out} ({len(tracer.spans)} spans)")
    print(f"  open it at https://ui.perfetto.dev (or chrome://tracing)")
    print(f"wrote {jsonl} and {metrics}; re-render the report offline with")
    print(f"  python -m repro.obs report {jsonl} --metrics {metrics}")


if __name__ == "__main__":
    main()
