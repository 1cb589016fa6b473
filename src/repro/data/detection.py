"""Synthetic object-detection scenes standing in for PascalVOC (§6.4).

Each scene is a 32x32 RGB image containing 1-3 geometric objects
(square / cross / disc — three classes with distinct shapes and color
channels) on a noisy background.  Targets are produced both as YOLO grid
tensors (for training :class:`~repro.models.yolo.MiniYolo`) and as box
lists (for mAP evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import BatchedDataset

CLASS_NAMES = ["square", "cross", "disc"]
#: Scene geometry: image side, YOLO grid side, objects tried per image,
#: background noise scale and the range of object half-sizes — 3 to
#: ``IMAGE_SIZE // 6`` pixels, PascalVOC-like proportions where an
#: IoU-0.5 match tolerates pixel-level center error (tiny objects make
#: mAP@0.5 degenerate at 32x32 resolution).
IMAGE_SIZE = 32
GRID_SIZE = 4
MAX_OBJECTS = 2
NOISE = 0.15
MIN_HALF = 3
MAX_HALF = IMAGE_SIZE // 6


@dataclass
class DetectionDataset(BatchedDataset):
    """Images plus grid targets and ground-truth box lists."""

    images: np.ndarray  # (count, 3, size, size)
    grid_targets: np.ndarray  # (count, 5 + classes, S, S)
    boxes: list[list[tuple]]  # per image: (class_id, x1, y1, x2, y2) normalized
    grid_size: int
    num_classes: int

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.images, self.grid_targets


def _draw_object(
    image: np.ndarray, class_id: int, cx: int, cy: int, half: int
) -> None:
    """Draw one object; each class uses its own channel + shape."""
    size = image.shape[1]
    y0, y1 = max(cy - half, 0), min(cy + half + 1, size)
    x0, x1 = max(cx - half, 0), min(cx + half + 1, size)
    if class_id == 0:  # filled square, red channel
        image[0, y0:y1, x0:x1] += 1.0
    elif class_id == 1:  # cross, green channel
        image[1, y0:y1, cx] += 1.0
        image[1, cy, x0:x1] += 1.0
    else:  # disc, blue channel
        yy, xx = np.ogrid[:size, :size]
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half**2
        image[2][mask] += 1.0


def synthetic_detection(num_images: int = 128, seed: int = 0) -> DetectionDataset:
    """Generate detection scenes with grid targets and GT boxes."""
    num_classes = len(CLASS_NAMES)
    rng = np.random.default_rng(seed)
    cell = IMAGE_SIZE // GRID_SIZE
    images = np.zeros((num_images, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    targets = np.zeros(
        (num_images, 5 + num_classes, GRID_SIZE, GRID_SIZE), dtype=np.float32
    )
    all_boxes: list[list[tuple]] = []
    for i in range(num_images):
        count = int(rng.integers(1, MAX_OBJECTS + 1))
        boxes: list[tuple] = []
        used_cells: set[tuple[int, int]] = set()
        for _ in range(count):
            class_id = int(rng.integers(0, num_classes))
            half = int(rng.integers(MIN_HALF, MAX_HALF + 1))
            cx = int(rng.integers(half, IMAGE_SIZE - half))
            cy = int(rng.integers(half, IMAGE_SIZE - half))
            gx, gy = cx // cell, cy // cell
            if (gx, gy) in used_cells:
                continue  # one object per cell (single-anchor detector)
            used_cells.add((gx, gy))
            _draw_object(images[i], class_id, cx, cy, half)
            w = h = (2 * half + 1) / IMAGE_SIZE
            x_in_cell = (cx / cell) - gx
            y_in_cell = (cy / cell) - gy
            targets[i, 0, gy, gx] = 1.0
            targets[i, 1, gy, gx] = x_in_cell
            targets[i, 2, gy, gx] = y_in_cell
            targets[i, 3, gy, gx] = w
            targets[i, 4, gy, gx] = h
            targets[i, 5 + class_id, gy, gx] = 1.0
            norm_cx, norm_cy = cx / IMAGE_SIZE, cy / IMAGE_SIZE
            boxes.append(
                (
                    class_id,
                    norm_cx - w / 2,
                    norm_cy - h / 2,
                    norm_cx + w / 2,
                    norm_cy + h / 2,
                )
            )
        images[i] += NOISE * rng.standard_normal(images[i].shape).astype(np.float32)
        all_boxes.append(boxes)
    return DetectionDataset(
        images=images,
        grid_targets=targets,
        boxes=all_boxes,
        grid_size=GRID_SIZE,
        num_classes=num_classes,
    )
