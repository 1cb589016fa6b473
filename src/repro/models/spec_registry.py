"""Registry mapping paper model/dataset names to full-size specs.

``spec_for(model, dataset)`` is the single entry point the experiment
harness uses: the paper reports performance "in relation to the dataset,
as the model's structure exhibits slight changes depending on the input
size" (§6.3), which this registry reproduces by switching the input
resolution and classifier head per dataset.
"""

from __future__ import annotations

from typing import Callable

from .spec_densenet import densenet_spec
from .spec_inception import inception_v3_spec, inception_v4_spec
from .spec_mobilenet import mobilenet_v2_spec
from .spec_resnet import resnet_spec
from .spec_transformer import transformer_spec
from .spec_vgg import vgg_spec
from .spec_yolo import yolov3_spec
from .specs import ModelSpec

# The 13 classification models of Table 1 / Figs 17-21, in paper order.
CLASSIFICATION_MODELS: list[str] = [
    "ResNet50",
    "ResNet101",
    "ResNet152",
    "Inception-V4",
    "Inception-V3",
    "VGG13",
    "VGG16",
    "VGG19",
    "DenseNet121",
    "DenseNet161",
    "DenseNet169",
    "DenseNet201",
    "MobileNet-V2",
]

DATASETS: list[str] = ["Cifar10", "Cifar100", "ImageNet"]

_DATASET_CLASSES: dict[str, int] = {
    "Cifar10": 10,
    "Cifar100": 100,
    "ImageNet": 1000,
}

_DATASET_INPUT: dict[str, int] = {"Cifar10": 32, "Cifar100": 32, "ImageNet": 224}

# Inception traditionally runs at 299x299 on ImageNet.
_INCEPTION_IMAGENET_INPUT = 299


def _input_size(model: str, dataset: str) -> int:
    size = _DATASET_INPUT[dataset]
    if dataset == "ImageNet" and model.startswith("Inception"):
        return _INCEPTION_IMAGENET_INPUT
    return size


def spec_for(model: str, dataset: str = "ImageNet") -> ModelSpec:
    """Return the full-size :class:`ModelSpec` for a model/dataset pair."""
    if dataset not in _DATASET_CLASSES:
        raise KeyError(f"unknown dataset {dataset!r}; choose from {DATASETS}")
    classes = _DATASET_CLASSES[dataset]
    size = _input_size(model, dataset)
    builders: dict[str, Callable[[], ModelSpec]] = {
        "ResNet50": lambda: resnet_spec("ResNet50", size, classes),
        "ResNet101": lambda: resnet_spec("ResNet101", size, classes),
        "ResNet152": lambda: resnet_spec("ResNet152", size, classes),
        "Inception-V3": lambda: inception_v3_spec(size, classes),
        "Inception-V4": lambda: inception_v4_spec(size, classes),
        "VGG13": lambda: vgg_spec("VGG13", size, classes),
        "VGG16": lambda: vgg_spec("VGG16", size, classes),
        "VGG19": lambda: vgg_spec("VGG19", size, classes),
        "DenseNet121": lambda: densenet_spec("DenseNet121", size, classes),
        "DenseNet161": lambda: densenet_spec("DenseNet161", size, classes),
        "DenseNet169": lambda: densenet_spec("DenseNet169", size, classes),
        "DenseNet201": lambda: densenet_spec("DenseNet201", size, classes),
        "MobileNet-V2": lambda: mobilenet_v2_spec(size, classes),
        "Transformer": lambda: transformer_spec(),
        "YOLO-v3": lambda: yolov3_spec(),
    }
    if model not in builders:
        raise KeyError(f"unknown model {model!r}; choose from {sorted(builders)}")
    return builders[model]()
