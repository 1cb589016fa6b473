"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ArrayDataset,
    preset_split,
    synthetic_detection,
    synthetic_images,
    synthetic_translation,
)
from repro.data.translation import (
    BOS_ID,
    EOS_ID,
    MIN_LEN,
    PAD_ID,
    SHIFT,
    reference_translation,
)


class TestArrayDataset:
    def test_batch_iteration_covers_everything(self):
        data = ArrayDataset(np.arange(10), np.arange(10))
        seen = []
        for x, _ in data.batches(3, shuffle=False):
            seen.extend(x.tolist())
        assert sorted(seen) == list(range(10))

    def test_shuffle_is_deterministic_per_rng(self):
        data = ArrayDataset(np.arange(10), np.arange(10))
        a = [x.tolist() for x, _ in data.batches(4, rng=np.random.default_rng(1))]
        b = [x.tolist() for x, _ in data.batches(4, rng=np.random.default_rng(1))]
        assert a == b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.arange(3), np.arange(4))

    def test_num_batches(self):
        data = ArrayDataset(np.arange(10), np.arange(10))
        assert data.num_batches(4) == 3

    def test_last_partial_batch_is_kept(self):
        data = ArrayDataset(np.arange(10), -np.arange(10))
        batches = list(data.batches(4, shuffle=False))
        assert [x.tolist() for x, _ in batches] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert batches[-1][1].tolist() == [-8, -9]
        assert len(batches) == data.num_batches(4)


class TestSyntheticImages:
    def test_shapes_and_types(self):
        split = synthetic_images(5, 32, 16, image_size=12, seed=0)
        assert split.train.inputs.shape == (32, 3, 12, 12)
        assert split.train.targets.dtype == np.int64
        assert len(split.val) == 16

    def test_deterministic(self):
        a = synthetic_images(4, 8, 4, seed=3)
        b = synthetic_images(4, 8, 4, seed=3)
        np.testing.assert_array_equal(a.train.inputs, b.train.inputs)

    def test_labels_in_range(self):
        split = synthetic_images(7, 64, 32, seed=1)
        assert split.train.targets.min() >= 0
        assert split.train.targets.max() < 7

    def test_classes_are_separable_from_templates(self):
        """Noise-free samples of different classes must differ."""
        split = synthetic_images(3, 30, 10, noise=0.0, seed=2)
        xs, ys = split.train.inputs, split.train.targets
        for c in range(3):
            if (ys == c).sum() == 0:
                continue
            class_mean = xs[ys == c].mean(axis=0)
            for other in range(c + 1, 3):
                if (ys == other).sum() == 0:
                    continue
                other_mean = xs[ys == other].mean(axis=0)
                assert np.abs(class_mean - other_mean).max() > 0.1

    def test_presets(self):
        split = preset_split("Cifar100", num_train=16, num_val=8)
        assert split.train.targets.max() < 100
        with pytest.raises(KeyError):
            preset_split("mnist-like")

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            synthetic_images(1, 4, 4)


class TestSyntheticTranslation:
    def test_structure(self):
        data = synthetic_translation(num_sentences=20, seed=0)
        assert (data.tgt[:, 0] == BOS_ID).all()
        assert data.src.shape[0] == 20
        # Every sentence has exactly one EOS in the target.
        assert ((data.tgt == EOS_ID).sum(axis=1) == 1).all()

    def test_rule_is_reverse_and_shift(self):
        data = synthetic_translation(num_sentences=10, content_vocab=10, seed=1)
        for i in range(10):
            src_row = data.src[i]
            expected = reference_translation(src_row, shift=SHIFT, content_vocab=10)
            tgt_content = [
                int(t) for t in data.tgt[i] if t not in (BOS_ID, EOS_ID, PAD_ID)
            ]
            assert tgt_content == expected

    def test_lengths_bounded(self):
        data = synthetic_translation(num_sentences=50, max_len=5, seed=2)
        lengths = (data.src != PAD_ID).sum(axis=1)
        assert lengths.min() >= MIN_LEN
        assert lengths.max() <= 5

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            synthetic_translation(max_len=MIN_LEN - 1)


class TestSyntheticDetection:
    def test_shapes(self):
        data = synthetic_detection(num_images=8)
        assert data.images.shape == (8, 3, 32, 32)
        assert data.grid_targets.shape == (8, 8, 4, 4)
        assert len(data.boxes) == 8

    def test_every_image_has_an_object(self):
        data = synthetic_detection(num_images=16, seed=1)
        assert all(len(b) >= 1 for b in data.boxes)
        assert (data.grid_targets[:, 0].reshape(16, -1).sum(axis=1) >= 1).all()

    def test_grid_targets_match_boxes(self):
        data = synthetic_detection(num_images=12, seed=2)
        for i, boxes in enumerate(data.boxes):
            assert len(boxes) == int(data.grid_targets[i, 0].sum())
            for class_id, x1, y1, x2, y2 in boxes:
                assert 0 <= class_id < data.num_classes
                cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
                gx = int(cx * data.grid_size)
                gy = int(cy * data.grid_size)
                assert data.grid_targets[i, 0, gy, gx] == 1.0
                assert data.grid_targets[i, 5 + class_id, gy, gx] == 1.0

    def test_box_coordinates_normalized(self):
        data = synthetic_detection(num_images=10, seed=3)
        for boxes in data.boxes:
            for _cls, x1, y1, x2, y2 in boxes:
                assert -0.2 <= x1 < x2 <= 1.2
                assert -0.2 <= y1 < y2 <= 1.2


@given(classes=st.integers(2, 20), count=st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_image_generator_properties(classes, count):
    split = synthetic_images(classes, count, 1, image_size=8, seed=count)
    assert len(split.train) == count
    assert split.train.inputs.dtype == np.float32
    assert np.isfinite(split.train.inputs).all()
