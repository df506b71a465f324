"""Activation layers.

Every activation is a parameter-free :class:`repro.nn.layers.Layer`; they
cache whatever the backward pass needs on ``forward`` and release it after
``backward``.  Outputs and masks land in the caller's workspace arena
via the ``out=`` form of the exact legacy expressions.
"""

from __future__ import annotations

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
