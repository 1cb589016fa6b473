"""Model zoo: trainable minis + full-size specs of the paper's 15 networks."""

from .spec_registry import CLASSIFICATION_MODELS, DATASETS, spec_for
from .specs import LayerKind, LayerSpec, ModelSpec, SpecBuilder
from .transformer import Seq2SeqTransformer
from .yolo import MiniYolo, YoloLoss, decode_predictions
from .zoo import MINI_BUILDERS, build_mini

__all__ = [
    "CLASSIFICATION_MODELS",
    "DATASETS",
    "spec_for",
    "LayerKind",
    "LayerSpec",
    "ModelSpec",
    "SpecBuilder",
    "Seq2SeqTransformer",
    "MiniYolo",
    "YoloLoss",
    "decode_predictions",
    "MINI_BUILDERS",
    "build_mini",
]
