"""Tests for BLEU, IoU, mAP, and detection metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    bleu_score,
    detection_class_accuracy,
    iou,
    mean_average_precision,
    mean_squared_error,
)


class TestBleu:
    def test_perfect_match_is_100(self):
        sentences = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
        assert bleu_score(sentences, sentences) == pytest.approx(100.0)

    def test_no_overlap_is_smoothed_below_a_partial_match(self):
        none = bleu_score([[1, 2, 3, 4]], [[5, 6, 7, 8]])
        assert 0 < none < bleu_score([[1, 2, 3, 9, 9]], [[1, 2, 3, 4, 5]])

    def test_candidate_shorter_than_the_highest_order_scores_zero(self):
        assert bleu_score([[1, 2, 3]], [[1, 2, 3, 4]]) == 0.0

    def test_partial_overlap_between_zero_and_hundred(self):
        score = bleu_score([[1, 2, 3, 9, 9]], [[1, 2, 3, 4, 5]])
        assert 0 < score < 100

    def test_brevity_penalty_punishes_short_candidates(self):
        long_ref = [[1, 2, 3, 4, 5, 6, 7, 8]]
        full = bleu_score([[1, 2, 3, 4, 5, 6, 7, 8]], long_ref)
        short = bleu_score([[1, 2, 3, 4]], long_ref)
        assert short < full

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bleu_score([[1]], [[1], [2]])
        with pytest.raises(ValueError):
            bleu_score([], [])

    def test_order_matters(self):
        reference = [[1, 2, 3, 4, 5]]
        in_order = bleu_score([[1, 2, 3, 4, 5]], reference)
        shuffled = bleu_score([[5, 3, 1, 4, 2]], reference)
        assert shuffled < in_order


class TestIou:
    def test_identical_boxes(self):
        box = (0.0, 0.0, 1.0, 1.0)
        assert iou(box, box) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_half_overlap(self):
        value = iou((0, 0, 2, 2), (1, 0, 3, 2))
        assert value == pytest.approx(2.0 / 6.0)

    def test_degenerate_boxes(self):
        assert iou((0, 0, 0, 0), (0, 0, 1, 1)) == 0.0

    @given(
        x1=st.floats(0, 0.5), y1=st.floats(0, 0.5),
        w=st.floats(0.1, 0.5), h=st.floats(0.1, 0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_iou_symmetric_and_bounded(self, x1, y1, w, h):
        a = (x1, y1, x1 + w, y1 + h)
        b = (0.2, 0.2, 0.7, 0.7)
        assert iou(a, b) == pytest.approx(iou(b, a))
        assert 0.0 <= iou(a, b) <= 1.0


class TestMeanAveragePrecision:
    def test_perfect_detection_map_one(self):
        gts = [[(0, 0.1, 0.1, 0.3, 0.3)], [(1, 0.5, 0.5, 0.8, 0.8)]]
        preds = [
            [(0, 0.9, 0.1, 0.1, 0.3, 0.3)],
            [(1, 0.8, 0.5, 0.5, 0.8, 0.8)],
        ]
        assert mean_average_precision(preds, gts, num_classes=2) == pytest.approx(1.0)

    def test_wrong_class_scores_zero(self):
        gts = [[(0, 0.1, 0.1, 0.3, 0.3)]]
        preds = [[(1, 0.9, 0.1, 0.1, 0.3, 0.3)]]
        assert mean_average_precision(preds, gts, num_classes=2) == 0.0

    def test_misplaced_box_scores_zero(self):
        gts = [[(0, 0.1, 0.1, 0.3, 0.3)]]
        preds = [[(0, 0.9, 0.6, 0.6, 0.9, 0.9)]]
        assert mean_average_precision(preds, gts, num_classes=1) == 0.0

    def test_false_positives_reduce_precision(self):
        gts = [[(0, 0.1, 0.1, 0.3, 0.3)]]
        clean = [[(0, 0.9, 0.1, 0.1, 0.3, 0.3)]]
        noisy = [
            [
                (0, 0.95, 0.6, 0.6, 0.9, 0.9),  # confident false positive
                (0, 0.90, 0.1, 0.1, 0.3, 0.3),
            ]
        ]
        assert mean_average_precision(noisy, gts, 1) < mean_average_precision(
            clean, gts, 1
        )

    def test_duplicate_detections_count_once(self):
        """A duplicate ranked above another object's detection is a FP
        that drags interpolated precision below 1."""
        gts = [[(0, 0.1, 0.1, 0.3, 0.3), (0, 0.6, 0.6, 0.8, 0.8)]]
        preds = [
            [
                (0, 0.90, 0.1, 0.1, 0.3, 0.3),
                (0, 0.85, 0.1, 0.1, 0.3, 0.3),  # duplicate -> false positive
                (0, 0.80, 0.6, 0.6, 0.8, 0.8),
            ]
        ]
        value = mean_average_precision(preds, gts, 1)
        assert value == pytest.approx(0.5 + 0.5 * (2 / 3))

    def test_no_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision([[]], [[]], num_classes=1)

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            mean_average_precision([[], []], [[]], num_classes=1)


class TestDetectionClassAccuracy:
    def test_all_correct(self):
        target = np.zeros((1, 8, 2, 2), dtype=np.float32)
        target[0, 0, 0, 0] = 1.0
        target[0, 5 + 2, 0, 0] = 1.0
        pred = np.zeros_like(target)
        pred[0, 5 + 2, 0, 0] = 5.0
        assert detection_class_accuracy(pred, target) == 100.0

    def test_all_wrong(self):
        target = np.zeros((1, 8, 2, 2), dtype=np.float32)
        target[0, 0, 0, 0] = 1.0
        target[0, 5 + 2, 0, 0] = 1.0
        pred = np.zeros_like(target)
        pred[0, 5 + 0, 0, 0] = 5.0
        assert detection_class_accuracy(pred, target) == 0.0

    def test_requires_objects(self):
        empty = np.zeros((1, 8, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            detection_class_accuracy(empty, empty)


def test_mse_helper():
    a = np.array([1.0, 2.0])
    b = np.array([1.0, 4.0])
    assert mean_squared_error(a, b) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        mean_squared_error(a, np.zeros(3))
