"""Layer library: every layer implements forward / backward / backward_second."""

from repro.nn.layers.activation import Identity, ReLU, Sigmoid, Tanh
from repro.nn.layers.base import WeightedLayer
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import GlobalAvgPool2d, MaxPool2d
from repro.nn.layers.reshape import Flatten

__all__ = [
    "BatchNorm2d",
    "Conv2d",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "WeightedLayer",
]
