"""White-box per-layer gradient membership signals.

The §3 analysis measures how much each layer's gradients differ between
member and non-member samples.  The same signal can be weaponized: a
white-box attacker computes the gradient norm of a single layer for a
candidate sample (members, being already fit, induce smaller
gradients) and uses ``-norm`` as a membership score.
"""

from __future__ import annotations

import numpy as np

from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.model import Model


def per_example_layer_gradient_norms(
        model: Model, x: np.ndarray, y: np.ndarray, *,
        loss: Loss | None = None,
        max_samples: int | None = None) -> np.ndarray:
    """Gradient L2 norm per layer for each sample individually.

    Returns shape ``(n, J)`` where J is the number of trainable layers.
    Each sample requires its own backward pass, so cap with
    ``max_samples`` in sweeps.
    """
    loss = loss or SoftmaxCrossEntropy()
    n = len(y) if max_samples is None else min(len(y), max_samples)
    norms = np.zeros((n, model.num_trainable_layers))
    for i in range(n):
        # Zero-copy views into the flat gradient buffer: the norms are
        # consumed immediately, before the next backward pass.
        vectors = model.per_layer_gradient_vectors(
            x[i:i + 1], y[i:i + 1], loss, copy=False)
        norms[i] = [float(np.linalg.norm(v)) for v in vectors]
    return norms


def layer_gradient_scores(model: Model, x: np.ndarray, y: np.ndarray,
                          layer_index: int, *,
                          max_samples: int | None = None) -> np.ndarray:
    """Membership scores from one layer's per-sample gradient norms."""
    norms = per_example_layer_gradient_norms(
        model, x, y, max_samples=max_samples)
    if not 0 <= layer_index < norms.shape[1]:
        raise IndexError(
            f"layer_index {layer_index} out of range "
            f"[0, {norms.shape[1]})")
    return -norms[:, layer_index]


class LayerGradientAttack:
    """Attack adapter exposing the layer-gradient signal as ``score``."""

    name = "layer_gradient"

    def __init__(self, layer_index: int, *,
                 max_samples: int | None = None) -> None:
        self.layer_index = layer_index
        self.max_samples = max_samples

    def score(self, model: Model, x: np.ndarray,
              y: np.ndarray) -> np.ndarray:
        return layer_gradient_scores(
            model, x, y, self.layer_index, max_samples=self.max_samples)
