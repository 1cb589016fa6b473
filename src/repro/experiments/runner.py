"""Run every paper experiment and print its table/figure data.

``python -m repro.experiments.runner`` regenerates everything; pass
``--quick`` to shrink the training-based experiments (Table 1 to a model
subset, fewer epochs) for a fast smoke run.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import (
    fig15_predictor_error,
    fig16_characterization,
    fig17_19_speedup,
    fig20_pipeline,
    fig21_energy,
    table1_accuracy,
    table2_transformer,
    table3_yolo,
    table4_5_hardware,
)
from ..accel import DataflowKind
from ..core import ThroughputTimer
from ..pipeline import PipelineKind

QUICK_TABLE1_MODELS = ["ResNet50", "VGG13", "DenseNet121", "MobileNet-V2"]


def run_all(quick: bool = False, stream=sys.stdout) -> None:
    def emit(text: str) -> None:
        print(text, file=stream)
        print(file=stream)

    start = time.time()
    # One timer shared by every training-based experiment: the engine's
    # callback system aggregates measured batches/sec per phase across
    # the whole regeneration run (printed at the end).
    timer = ThroughputTimer()

    # Table 1 (training-based).
    models = QUICK_TABLE1_MODELS if quick else None
    epochs = 12 if quick else 20
    rows = table1_accuracy.run_table1(
        models=models, epochs=epochs, callbacks=(timer,)
    )
    emit(table1_accuracy.format_table1(rows))

    # Fig 15 (training-based).
    result = fig15_predictor_error.run_fig15(
        epochs=12 if quick else 24, callbacks=(timer,)
    )
    emit(fig15_predictor_error.format_fig15(result, "mape"))
    emit(fig15_predictor_error.format_fig15(result, "mse"))

    # Fig 16 (analytical).
    emit(fig16_characterization.format_fig16(fig16_characterization.run_fig16()))

    # Figs 17-19 (analytical).
    for dataflow in (
        DataflowKind.WEIGHT_STATIONARY,
        DataflowKind.ROW_STATIONARY,
        DataflowKind.INPUT_STATIONARY,
    ):
        emit(
            fig17_19_speedup.format_speedups(
                fig17_19_speedup.run_speedups(dataflow)
            )
        )

    # Table 2 (training-based).
    emit(
        table2_transformer.format_table2(
            table2_transformer.run_table2(
                epochs=16 if quick else 30, callbacks=(timer,)
            )
        )
    )

    # Table 3 (training-based).
    emit(
        table3_yolo.format_table3(
            table3_yolo.run_table3(epochs=12 if quick else 25, callbacks=(timer,))
        )
    )

    # Fig 20 (analytical).
    for pipeline in PipelineKind:
        emit(fig20_pipeline.format_fig20(fig20_pipeline.run_fig20(pipeline)))

    # Tables 4 & 5 + equal-resource study (analytical).
    emit(table4_5_hardware.format_table4a())
    emit(table4_5_hardware.format_table4b())
    emit(table4_5_hardware.format_table5a())
    emit(table4_5_hardware.format_table5b())
    emit(
        table4_5_hardware.format_equal_resource(
            table4_5_hardware.run_equal_resource_study()
        )
    )

    # Fig 21 (analytical).
    emit(fig21_energy.format_fig21(fig21_energy.run_fig21()))

    print(f"[{timer.summary()}]", file=stream)
    batch_seconds = sum(row["seconds"] for row in timer.snapshot().values())
    print(
        f"[done in {time.time() - start:.1f}s wall, "
        f"{batch_seconds:.1f}s in measured training batches]",
        file=stream,
    )


def main() -> None:  # pragma: no cover
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller/faster run")
    args = parser.parse_args()
    run_all(quick=args.quick)


if __name__ == "__main__":  # pragma: no cover
    main()
