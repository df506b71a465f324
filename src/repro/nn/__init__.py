"""From-scratch NumPy neural-network substrate.

This subpackage replaces PyTorch in the original DINAR prototype.  It
provides layer-based sequential networks with exact analytic backprop,
layer-indexed parameter access (the handle DINAR's obfuscation and
personalization operate on), losses, initializers and the optimizer zoo
used in the paper's ablation study (Fig. 11).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "activations": "ReLU Tanh",
    "layers": ("AvgPool2d BatchNorm1d Conv1d Conv2d Dense Flatten Layer"
               " MaxPool1d MaxPool2d"),
    "losses": "Loss SoftmaxCrossEntropy",
    "model": "Model",
    "optim": "ADGD AdaMax Adagrad Adam Optimizer RMSProp SGD make_optimizer",
    "store": "Layout LayoutEntry WeightStore chunked_sq_sum",
    "workspace": "Workspace",
})

__all__ = [
    "ADGD",
    "AdaMax",
    "Adagrad",
    "Adam",
    "AvgPool2d",
    "BatchNorm1d",
    "Conv1d",
    "Conv2d",
    "Dense",
    "Flatten",
    "Layer",
    "Layout",
    "LayoutEntry",
    "Loss",
    "MaxPool1d",
    "MaxPool2d",
    "Model",
    "Optimizer",
    "RMSProp",
    "ReLU",
    "SGD",
    "SoftmaxCrossEntropy",
    "Tanh",
    "WeightStore",
    "Workspace",
    "chunked_sq_sum",
    "make_optimizer",
]
