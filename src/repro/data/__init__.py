"""Synthetic datasets replacing the paper's (offline-unavailable) data."""

from .dataset import ArrayDataset, Split
from .detection import CLASS_NAMES, DetectionDataset, synthetic_detection
from .synthetic import (
    DATASET_PRESETS,
    PAPER_TO_PRESET,
    preset_split,
    synthetic_images,
)
from .translation import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    TranslationDataset,
    reference_translation,
    synthetic_translation,
    teacher_forcing,
)

__all__ = [
    "ArrayDataset",
    "Split",
    "CLASS_NAMES",
    "DetectionDataset",
    "synthetic_detection",
    "DATASET_PRESETS",
    "PAPER_TO_PRESET",
    "preset_split",
    "synthetic_images",
    "BOS_ID",
    "EOS_ID",
    "PAD_ID",
    "TranslationDataset",
    "reference_translation",
    "synthetic_translation",
    "teacher_forcing",
]
