"""Train the YOLO-style grid detector with ADA-GP on synthetic scenes.

The paper's §6.4 detection workload (PascalVOC stands in for synthetic
square/cross/disc scenes).  Trains BP and ADA-GP detectors, reports
class accuracy and mAP@0.5, and prints the detections for one scene.

Run:  python examples/object_detection.py
"""

import numpy as np

from repro.core import HeuristicSchedule, adagp_engine, bp_engine
from repro.core.metrics import detection_class_accuracy, mean_average_precision
from repro.data import CLASS_NAMES, synthetic_detection
from repro.models import MiniYolo, YoloLoss, decode_predictions


def train(use_adagp: bool, train_set, val_set, epochs: int = 60):
    model = MiniYolo(
        num_classes=train_set.num_classes, grid_size=train_set.grid_size,
        rng=np.random.default_rng(1),
    )
    loss = YoloLoss()
    if use_adagp:
        engine = adagp_engine(
            model, loss, lr=0.01,
            schedule=HeuristicSchedule(
                warmup_epochs=14, ladder=((6, (4, 1)), (6, (3, 1)), (6, (2, 1)))
            ),
        )
    else:
        engine = bp_engine(model, loss, lr=0.01)
    engine.fit(
        train_set.epochs(16, 2), val_set.epochs(64), epochs=epochs
    )
    return model


def evaluate(tag: str, model, val_set) -> None:
    model.eval()
    predictions = model(val_set.images)
    model.train()
    class_acc = detection_class_accuracy(predictions, val_set.grid_targets)
    detections = decode_predictions(predictions, conf_threshold=0.5)
    test_map = mean_average_precision(
        detections, val_set.boxes, num_classes=val_set.num_classes
    )
    print(f"{tag:8s}: class acc {class_acc:.1f}%  mAP@0.5 {test_map:.3f}")


def main() -> None:
    # Box regression is step-hungry: 320 scenes x 60 epochs at batch 16
    # (the Table 3 configuration) reaches ~0.5 mAP@0.5; shrink for a
    # quicker look at the pipeline.
    train_set = synthetic_detection(num_images=320, seed=0)
    val_set = synthetic_detection(num_images=64, seed=100)

    print("Training baseline detector (BP)...")
    bp_model = train(False, train_set, val_set)
    evaluate("BP", bp_model, val_set)

    print("Training ADA-GP detector...")
    ada_model = train(True, train_set, val_set)
    evaluate("ADA-GP", ada_model, val_set)

    print("\nDetections on one validation scene (ADA-GP model):")
    ada_model.eval()
    predictions = ada_model(val_set.images[:1])
    for class_id, conf, x1, y1, x2, y2 in decode_predictions(
        predictions, conf_threshold=0.4
    )[0]:
        print(
            f"  {CLASS_NAMES[class_id]:6s} conf={conf:.2f} "
            f"box=({x1:.2f}, {y1:.2f}, {x2:.2f}, {y2:.2f})"
        )
    print("Ground truth:")
    for class_id, x1, y1, x2, y2 in val_set.boxes[0]:
        print(
            f"  {CLASS_NAMES[class_id]:6s}           "
            f"box=({x1:.2f}, {y1:.2f}, {x2:.2f}, {y2:.2f})"
        )


if __name__ == "__main__":
    main()
