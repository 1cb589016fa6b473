"""Synthetic image-classification datasets.

The paper trains on CIFAR10/CIFAR100/ImageNet, which are unavailable
offline; these generators produce deterministic class-conditional images
(smooth per-class template patterns plus noise and random circular
shifts) that a small CNN can learn, so the BP-vs-ADA-GP accuracy
comparison of Table 1 exercises the identical code path.

The three paper datasets map to presets differing in class count and
image size: ``cifar10-like`` (10 classes), ``cifar100-like`` (100
classes), ``imagenet-like`` (200 classes, larger images).
"""

from __future__ import annotations

import numpy as np

from .dataset import ArrayDataset, Split

#: Colour channels per image, and the largest circular shift (pixels,
#: each axis) applied to a sample's class template.
IMAGE_CHANNELS = 3
MAX_SHIFT = 2


def _class_templates(
    num_classes: int, image_size: int, channels: int, rng: np.random.Generator
) -> np.ndarray:
    """Smooth random template per class, built from low-frequency waves."""
    yy, xx = np.meshgrid(
        np.linspace(0, 2 * np.pi, image_size),
        np.linspace(0, 2 * np.pi, image_size),
        indexing="ij",
    )
    templates = np.zeros((num_classes, channels, image_size, image_size), dtype=np.float32)
    for c in range(num_classes):
        for ch in range(channels):
            pattern = np.zeros_like(yy)
            for _ in range(3):
                fy, fx = rng.integers(1, 4, size=2)
                phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
                amp = rng.uniform(0.5, 1.0)
                pattern += amp * np.sin(fy * yy + phase_y) * np.cos(fx * xx + phase_x)
            templates[c, ch] = pattern.astype(np.float32)
    # Normalize template energy so classes are equally hard.
    templates /= np.abs(templates).max(axis=(1, 2, 3), keepdims=True) + 1e-8
    return templates


def synthetic_images(
    num_classes: int,
    num_train: int,
    num_val: int,
    image_size: int = 16,
    noise: float = 0.4,
    seed: int = 0,
) -> Split:
    """Generate a train/val split of class-conditional images."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    rng = np.random.default_rng(seed)
    templates = _class_templates(num_classes, image_size, IMAGE_CHANNELS, rng)

    def make(count: int) -> ArrayDataset:
        labels = rng.integers(0, num_classes, size=count)
        images = templates[labels].copy()
        shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(count, 2))
        for i, (dy, dx) in enumerate(shifts):
            images[i] = np.roll(images[i], (int(dy), int(dx)), axis=(1, 2))
        images += noise * rng.standard_normal(images.shape).astype(np.float32)
        return ArrayDataset(images.astype(np.float32), labels.astype(np.int64))

    return Split(train=make(num_train), val=make(num_val))


# Preset name -> (num_classes, image_size) mirroring the paper's datasets.
DATASET_PRESETS: dict[str, tuple[int, int]] = {
    "cifar10-like": (10, 16),
    "cifar100-like": (100, 16),
    "imagenet-like": (200, 24),
}

PAPER_TO_PRESET: dict[str, str] = {
    "Cifar10": "cifar10-like",
    "Cifar100": "cifar100-like",
    "ImageNet": "imagenet-like",
}


def preset_split(
    preset: str, num_train: int = 512, num_val: int = 256, seed: int = 0
) -> Split:
    """Build a dataset split from a named preset."""
    if preset in PAPER_TO_PRESET:
        preset = PAPER_TO_PRESET[preset]
    if preset not in DATASET_PRESETS:
        raise KeyError(
            f"unknown preset {preset!r}; choose from {sorted(DATASET_PRESETS)} "
            f"or paper names {sorted(PAPER_TO_PRESET)}"
        )
    num_classes, image_size = DATASET_PRESETS[preset]
    return synthetic_images(
        num_classes=num_classes,
        num_train=num_train,
        num_val=num_val,
        image_size=image_size,
        seed=seed,
    )
