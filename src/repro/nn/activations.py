"""Activation layers.

Every activation is a parameter-free :class:`repro.nn.layers.Layer`; they
cache whatever the backward pass needs on ``forward`` and release it after
``backward``.  Outputs and masks land in the caller's workspace arena
via the ``out=`` form of the exact legacy expressions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers import Layer
from repro.nn.workspace import Workspace


class ReLU(Layer):
    """Rectified linear unit, ``max(0, x)``."""

    _ephemeral = ("_mask",)

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace) -> np.ndarray:
        mask = self._scratch_like(workspace, "mask", x, bool)
        np.greater(x, 0, out=mask)
        self._mask = mask
        out = self._scratch_like(workspace, "out", x)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace) -> np.ndarray:
        out = self._scratch_like(workspace, "dx", grad)
        np.multiply(grad, self._mask, out=out)
        self._mask = None
        return out


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope."""

    _ephemeral = ("_mask",)

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace) -> np.ndarray:
        mask = self._scratch_like(workspace, "mask", x, bool)
        np.greater(x, 0, out=mask)
        self._mask = mask
        # np.where(mask, x, slope * x) as a fill-then-overwrite: identical
        # selection, no extra arithmetic on the kept lanes.
        out = self._scratch_like(workspace, "out", x)
        np.multiply(self.negative_slope, x, out=out)
        np.copyto(out, x, where=mask)
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace) -> np.ndarray:
        out = self._scratch_like(workspace, "dx", grad)
        np.multiply(self.negative_slope, grad, out=out)
        np.copyto(out, grad, where=self._mask)
        self._mask = None
        return out


class Tanh(Layer):
    """Hyperbolic tangent — the activation of the paper's 6-layer FCNN."""

    _ephemeral = ("_out",)

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace) -> np.ndarray:
        out = self._scratch_like(workspace, "out", x)
        np.tanh(x, out=out)
        self._out = out
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace) -> np.ndarray:
        tmp = self._scratch_like(workspace, "tmp", self._out)
        np.power(self._out, 2, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        out = self._scratch_like(workspace, "dx", grad,
                                 np.result_type(grad.dtype, tmp.dtype))
        np.multiply(grad, tmp, out=out)
        self._out = None
        return out


class Sigmoid(Layer):
    """Logistic sigmoid."""

    _ephemeral = ("_out",)

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace) -> np.ndarray:
        out = self._scratch_like(workspace, "out", x)
        np.clip(x, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        np.divide(1.0, out, out=out)
        self._out = out
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace) -> np.ndarray:
        s = self._out
        tmp = self._scratch_like(workspace, "tmp", s)
        np.subtract(1.0, s, out=tmp)
        out = self._scratch_like(workspace, "dx", grad,
                                 np.result_type(grad.dtype, s.dtype))
        np.multiply(grad, s, out=out)
        out *= tmp
        self._out = None
        return out


class ELU(Layer):
    """Exponential linear unit."""

    _ephemeral = ("_mask", "_neg")

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace) -> np.ndarray:
        neg = self._scratch_like(workspace, "neg", x)
        np.minimum(x, 0.0, out=neg)
        np.exp(neg, out=neg)
        neg -= 1.0
        np.multiply(self.alpha, neg, out=neg)
        self._neg = neg
        mask = self._scratch_like(workspace, "mask", x, bool)
        np.greater(x, 0, out=mask)
        self._mask = mask
        out = self._scratch_like(workspace, "out", x)
        out[...] = neg
        np.copyto(out, x, where=mask)
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace) -> np.ndarray:
        tmp = self._scratch_like(workspace, "tmp", self._neg)
        np.add(self._neg, self.alpha, out=tmp)
        out = self._scratch_like(workspace, "dx", grad,
                                 np.result_type(grad.dtype, tmp.dtype))
        np.multiply(grad, tmp, out=out)
        np.copyto(out, grad, where=self._mask)
        self._mask = None
        self._neg = None
        return out


class GELU(Layer):
    """Gaussian error linear unit (tanh approximation)."""

    _ephemeral = ("_x", "_t")

    _C = math.sqrt(2.0 / math.pi)

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace) -> np.ndarray:
        self._x = x
        t = self._scratch_like(workspace, "t", x)
        np.power(x, 3, out=t)
        t *= 0.044715
        np.add(x, t, out=t)
        t *= self._C
        np.tanh(t, out=t)
        self._t = t
        out = self._scratch_like(workspace, "out", x)
        np.multiply(0.5, x, out=out)
        tmp = self._scratch_like(workspace, "tmp", x)
        np.add(1.0, t, out=tmp)
        out *= tmp
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace) -> np.ndarray:
        x, t = self._x, self._t
        dinner = self._scratch_like(workspace, "dinner", x)
        np.power(x, 2, out=dinner)
        dinner *= 3 * 0.044715
        np.add(1.0, dinner, out=dinner)
        dinner *= self._C
        dx = self._scratch_like(workspace, "dxfac", x)
        np.add(1.0, t, out=dx)
        dx *= 0.5
        curve = self._scratch_like(workspace, "curve", x)
        np.multiply(0.5, x, out=curve)
        sech2 = self._scratch_like(workspace, "sech2", x)
        np.power(t, 2, out=sech2)
        np.subtract(1.0, sech2, out=sech2)
        curve *= sech2
        curve *= dinner
        dx += curve
        out = self._scratch_like(workspace, "dx", grad,
                                 np.result_type(grad.dtype, dx.dtype))
        np.multiply(grad, dx, out=out)
        self._x = None
        self._t = None
        return out


class Softmax(Layer):
    """Standalone softmax over the last axis.

    Prefer :class:`repro.nn.losses.SoftmaxCrossEntropy` for training, which
    fuses softmax with the loss for numerical stability; this layer exists
    for models that must *emit* probabilities (e.g. attack feature
    extraction from a deployed model).
    """

    _ephemeral = ("_out",)

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace) -> np.ndarray:
        m = self._scratch(workspace, "max", x.shape[:-1] + (1,), x.dtype)
        x.max(axis=-1, keepdims=True, out=m)
        out = self._scratch_like(workspace, "out", x)
        np.subtract(x, m, out=out)
        np.exp(out, out=out)
        s = self._scratch(workspace, "sum", x.shape[:-1] + (1,), x.dtype)
        out.sum(axis=-1, keepdims=True, out=s)
        out /= s
        self._out = out
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace) -> np.ndarray:
        s = self._out
        self._out = None
        tmp = self._scratch(workspace, "tmp", grad.shape,
                            np.result_type(grad.dtype, s.dtype))
        np.multiply(grad, s, out=tmp)
        dot = self._scratch(workspace, "dot", grad.shape[:-1] + (1,),
                            tmp.dtype)
        tmp.sum(axis=-1, keepdims=True, out=dot)
        np.subtract(grad, dot, out=tmp)
        np.multiply(s, tmp, out=tmp)
        return tmp
