"""Layer catalogue of the NumPy DNN framework."""

from .activations import ReLU, ReLU6, Sigmoid, Tanh
from .attention import MultiHeadAttention, causal_mask, padding_mask
from .blocks import ConcatBranches, DenseConcat, Residual, conv_bn_relu
from .core import Conv2d, Flatten, Identity, Linear, Sequential
from .embedding import Embedding, PositionalEncoding
from .norm import BatchNorm1d, BatchNorm2d, LayerNorm
from .pooling import AdaptiveAvgPool2d, AvgPool2d, GlobalAvgPool2d, MaxPool2d

__all__ = [
    "ReLU",
    "ReLU6",
    "Sigmoid",
    "Tanh",
    "MultiHeadAttention",
    "causal_mask",
    "padding_mask",
    "ConcatBranches",
    "DenseConcat",
    "Residual",
    "conv_bn_relu",
    "Conv2d",
    "Flatten",
    "Identity",
    "Linear",
    "Sequential",
    "Embedding",
    "PositionalEncoding",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "AdaptiveAvgPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "MaxPool2d",
]
