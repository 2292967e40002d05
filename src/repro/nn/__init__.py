"""``repro.nn`` — neural-network layers on top of the autograd engine.

Every layer supports the double backpropagation HERO's training rule
requires: most are composites of twice-differentiable primitives, and
conv and BatchNorm are one op each whose adjoints belong to a set of
ops closed under differentiation.
"""

from .module import Module, Parameter, Sequential, Identity, eval_mode
from .linear import Linear, Flatten, linear
from .conv import Conv2d, conv2d, conv_output_size
from .pooling import (
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    max_pool2d,
    avg_pool2d,
    global_avg_pool2d,
)
from .norm import BatchNorm1d, BatchNorm2d
from .norm_extra import LayerNorm, GroupNorm
from .activation import ReLU, ReLU6, Tanh, Sigmoid, LeakyReLU
from .activation_extra import GELU, SiLU, Softplus, ELU
from .dropout import Dropout
from .losses import CrossEntropyLoss, MSELoss, cross_entropy, mse_loss
from .summary import summary, collect_summary
from . import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Identity",
    "eval_mode",
    "Linear",
    "Flatten",
    "linear",
    "Conv2d",
    "conv2d",
    "conv_output_size",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "GroupNorm",
    "ReLU",
    "ReLU6",
    "Tanh",
    "Sigmoid",
    "LeakyReLU",
    "GELU",
    "SiLU",
    "Softplus",
    "ELU",
    "Dropout",
    "CrossEntropyLoss",
    "MSELoss",
    "cross_entropy",
    "mse_loss",
    "summary",
    "collect_summary",
    "init",
]
