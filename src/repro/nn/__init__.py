"""A from-scratch NumPy deep-learning framework.

This package is the substrate the SWIM reproduction runs on (the original
paper used PyTorch, which is unavailable in this environment).  Every layer
implements three passes:

- ``forward(x)`` — compute outputs, cache intermediates;
- ``backward(grad)`` — reverse-mode gradients (paper Eqs. 12-13);
- ``backward_second(curv)`` — the paper's single-pass diagonal
  second-derivative recursion (Eqs. 8-10), the core of SWIM.
"""

from repro.nn import functional, init
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
    WeightedLayer,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD, cosine_schedule
from repro.nn.parameter import Parameter
from repro.nn.quant import (
    ActQuant,
    attach_weight_quantizers,
    dequantize,
    fake_quantize,
    quantize_symmetric,
)
from repro.nn.trainer import (
    TrainConfig,
    TrainHistory,
    Trainer,
    evaluate_accuracy,
    iterate_batches,
)

__all__ = [
    "ActQuant",
    "BatchNorm2d",
    "Conv2d",
    "CrossEntropyLoss",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "TrainConfig",
    "TrainHistory",
    "Trainer",
    "WeightedLayer",
    "attach_weight_quantizers",
    "cosine_schedule",
    "dequantize",
    "evaluate_accuracy",
    "fake_quantize",
    "functional",
    "init",
    "iterate_batches",
    "quantize_symmetric",
]
