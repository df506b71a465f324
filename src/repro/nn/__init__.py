"""From-scratch NumPy neural-network substrate.

This subpackage replaces PyTorch in the original DINAR prototype.  It
provides layer-based sequential networks with exact analytic backprop,
layer-indexed parameter access (the handle DINAR's obfuscation and
personalization operate on), losses, initializers and the optimizer zoo
used in the paper's ablation study (Fig. 11).
"""

from repro.nn.activations import (
    ELU,
    GELU,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    Conv1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool1d,
    MaxPool2d,
)
from repro.nn.losses import Loss, MSELoss, SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import (
    ADGD,
    AdaMax,
    Adagrad,
    Adam,
    Optimizer,
    RMSProp,
    SGD,
    make_optimizer,
)
from repro.nn.schedule import (
    CosineDecay,
    LRSchedule,
    ScheduledOptimizer,
    StepDecay,
    WarmupSchedule,
)
from repro.nn.serialize import load_store, save_weights
from repro.nn.store import (
    Layout,
    LayoutEntry,
    WeightStore,
    chunked_sq_sum,
)
from repro.nn.workspace import Workspace

__all__ = [
    "ADGD",
    "AdaMax",
    "Adagrad",
    "Adam",
    "AvgPool2d",
    "BatchNorm1d",
    "Conv1d",
    "Conv2d",
    "CosineDecay",
    "Dense",
    "Dropout",
    "ELU",
    "Flatten",
    "GELU",
    "LRSchedule",
    "Layer",
    "Layout",
    "LayoutEntry",
    "LeakyReLU",
    "Loss",
    "MSELoss",
    "MaxPool1d",
    "MaxPool2d",
    "Model",
    "Optimizer",
    "RMSProp",
    "ReLU",
    "SGD",
    "ScheduledOptimizer",
    "Sigmoid",
    "Softmax",
    "SoftmaxCrossEntropy",
    "StepDecay",
    "Tanh",
    "WarmupSchedule",
    "WeightStore",
    "Workspace",
    "chunked_sq_sum",
    "load_store",
    "make_optimizer",
    "save_weights",
]
