"""The paper's fully-connected classifier (Purchase100 / Texas100).

Per §5.1: "a fully-connected neural network architecture with layers of
sizes 4096, 2048, 1024, 512, 256, and 128, leveraging Tanh activation
functions and a fully-connected classification layer".  The default
widths here are proportionally scaled for CPU experiments; pass
``hidden=PAPER_FCNN_HIDDEN`` to build the paper-exact network.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.model import Model

#: Hidden widths exactly as printed in the paper (§5.1).
PAPER_FCNN_HIDDEN: tuple[int, ...] = (4096, 2048, 1024, 512, 256, 128)

#: CPU-scaled widths keeping the 6-layer narrowing shape while staying
#: wide enough at the end to separate 100 classes.
DEFAULT_HIDDEN: tuple[int, ...] = (256, 128, 128, 64, 64, 64)


def build_fcnn(input_dim: int | Sequence[int], num_classes: int,
               rng: np.random.Generator, *,
               hidden: Sequence[int] = DEFAULT_HIDDEN,
               dtype: np.dtype | str = np.float64) -> Model:
    """Build the 6-hidden-layer Tanh FCNN plus a classification layer.

    ``input_dim`` is a feature count or an input shape, which the first
    layer sees flattened.  The resulting model has ``len(hidden) + 1``
    trainable layers; the penultimate trainable layer (index
    ``len(hidden) - 1``) is the one the paper's analysis finds most
    privacy-sensitive.
    """
    if not hidden:
        raise ValueError("hidden must contain at least one width")
    layers = []
    prev = int(np.prod(input_dim))
    for width in hidden:
        layers.append(Dense(prev, width, rng, scheme="xavier", dtype=dtype))
        layers.append(Tanh())
        prev = width
    layers.append(Dense(prev, num_classes, rng, scheme="xavier", dtype=dtype))
    return Model(layers, name=f"fcnn{len(hidden)}")
