"""Evaluation metrics: MAPE/MSE (Fig 15), BLEU (Table 2), mAP (Table 3)."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

__all__ = [
    "mean_absolute_percentage_error",
    "mean_squared_error",
    "bleu_score",
    "iou",
    "mean_average_precision",
    "detection_class_accuracy",
]

#: MAPE's guard on the mean absolute actual value.
MAPE_EPS = 1e-8
#: BLEU's highest n-gram order.
BLEU_MAX_N = 4


def mean_squared_error(actual: np.ndarray, predicted: np.ndarray) -> float:
    if actual.shape != predicted.shape:
        raise ValueError(f"shape mismatch: {actual.shape} vs {predicted.shape}")
    return float(np.mean((actual - predicted) ** 2))


def mean_absolute_percentage_error(actual: np.ndarray, predicted: np.ndarray) -> float:
    """MAPE as defined in paper Eq. 1, with the :data:`MAPE_EPS` guard.

    Expressed as a percentage of the mean absolute actual value to avoid
    division blow-ups on near-zero gradients (the paper plots values in
    the 0-2% range).
    """
    denom = float(np.mean(np.abs(actual))) + MAPE_EPS
    return float(np.mean(np.abs(actual - predicted)) / denom * 100.0)


# ----------------------------------------------------------------------
# BLEU (Papineni et al. 2002), for the Transformer experiment.
# ----------------------------------------------------------------------
def _ngram_counts(tokens: Sequence[int], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_score(
    candidates: Sequence[Sequence[int]],
    references: Sequence[Sequence[int]],
) -> float:
    """Corpus BLEU in [0, 100] up to :data:`BLEU_MAX_N`-grams, an order
    with no match smoothed to half a match."""
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise ValueError("bleu_score needs at least one sentence pair")
    matched = np.zeros(BLEU_MAX_N)
    total = np.zeros(BLEU_MAX_N)
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, BLEU_MAX_N + 1):
            cand_counts = _ngram_counts(cand, n)
            ref_counts = _ngram_counts(ref, n)
            total[n - 1] += max(len(cand) - n + 1, 0)
            matched[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in cand_counts.items()
            )
    precisions = []
    for n in range(BLEU_MAX_N):
        if total[n] == 0:
            precisions.append(0.0)
            continue
        if matched[n] == 0:
            precisions.append(1.0 / (2.0 * total[n]))
        else:
            precisions.append(matched[n] / total[n])
    if min(precisions) <= 0:
        return 0.0
    log_precision = float(np.mean([np.log(p) for p in precisions]))
    brevity = 1.0 if cand_len > ref_len else float(np.exp(1 - ref_len / max(cand_len, 1)))
    return 100.0 * brevity * float(np.exp(log_precision))


# ----------------------------------------------------------------------
# Detection metrics, for the YOLO experiment.
# ----------------------------------------------------------------------
Box = tuple[float, float, float, float]  # x1, y1, x2, y2


def iou(box_a: Box, box_b: Box) -> float:
    """Intersection-over-union of two (x1, y1, x2, y2) boxes."""
    x1 = max(box_a[0], box_b[0])
    y1 = max(box_a[1], box_b[1])
    x2 = min(box_a[2], box_b[2])
    y2 = min(box_a[3], box_b[3])
    inter = max(x2 - x1, 0.0) * max(y2 - y1, 0.0)
    area_a = max(box_a[2] - box_a[0], 0.0) * max(box_a[3] - box_a[1], 0.0)
    area_b = max(box_b[2] - box_b[0], 0.0) * max(box_b[3] - box_b[1], 0.0)
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def _average_precision(
    detections: list[tuple[int, float, Box]],  # (image_id, confidence, box)
    ground_truth: dict[int, list[Box]],
    iou_threshold: float,
) -> float:
    """All-point interpolated AP for one class."""
    num_gt = sum(len(boxes) for boxes in ground_truth.values())
    if num_gt == 0:
        return 0.0
    detections = sorted(detections, key=lambda d: -d[1])
    matched: dict[int, set[int]] = {img: set() for img in ground_truth}
    tp = np.zeros(len(detections))
    fp = np.zeros(len(detections))
    for i, (image_id, _conf, box) in enumerate(detections):
        candidates = ground_truth.get(image_id, [])
        best_iou, best_j = 0.0, -1
        for j, gt_box in enumerate(candidates):
            if j in matched.get(image_id, set()):
                continue
            overlap = iou(box, gt_box)
            if overlap > best_iou:
                best_iou, best_j = overlap, j
        if best_iou >= iou_threshold and best_j >= 0:
            tp[i] = 1
            matched.setdefault(image_id, set()).add(best_j)
        else:
            fp[i] = 1
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recalls = cum_tp / num_gt
    precisions = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
    # All-point interpolation.
    ap = 0.0
    prev_recall = 0.0
    for r, p in zip(recalls, np.maximum.accumulate(precisions[::-1])[::-1]):
        ap += (r - prev_recall) * p
        prev_recall = r
    return float(ap)


def mean_average_precision(
    predictions: list[list[tuple]],  # per image: (class_id, conf, x1, y1, x2, y2)
    ground_truths: list[list[tuple]],  # per image: (class_id, x1, y1, x2, y2)
    num_classes: int,
    iou_threshold: float = 0.5,
) -> float:
    """mAP at a single IoU threshold (PascalVOC style, paper IOU=0.5)."""
    if len(predictions) != len(ground_truths):
        raise ValueError("predictions and ground truths must align per image")
    aps = []
    for class_id in range(num_classes):
        detections = []
        gt: dict[int, list[Box]] = {}
        for image_id, (preds, gts) in enumerate(zip(predictions, ground_truths)):
            for p in preds:
                if p[0] == class_id:
                    detections.append((image_id, p[1], (p[2], p[3], p[4], p[5])))
            boxes = [(g[1], g[2], g[3], g[4]) for g in gts if g[0] == class_id]
            if boxes:
                gt[image_id] = boxes
        if not gt:
            continue  # class absent from this evaluation set
        aps.append(_average_precision(detections, gt, iou_threshold))
    if not aps:
        raise ValueError("no ground-truth objects for any class")
    return float(np.mean(aps))


def detection_class_accuracy(
    prediction_grid: np.ndarray, target_grid: np.ndarray
) -> float:
    """Percent of object cells whose argmax class matches the target.

    This is the paper's "Class Acc" column of Table 3 (classification
    accuracy on cells that contain an object).
    """
    if prediction_grid.shape != target_grid.shape:
        raise ValueError(
            f"shape mismatch: {prediction_grid.shape} vs {target_grid.shape}"
        )
    obj_mask = target_grid[:, 0] > 0.5
    if not obj_mask.any():
        raise ValueError("no object cells in targets")
    pred_classes = prediction_grid[:, 5:].argmax(axis=1)
    true_classes = target_grid[:, 5:].argmax(axis=1)
    return float((pred_classes[obj_mask] == true_classes[obj_mask]).mean() * 100.0)
