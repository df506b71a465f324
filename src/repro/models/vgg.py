"""VGG-family stand-in for the paper's VGG11 (GTSRB / CelebA).

Keeps the family signature — stacked conv/ReLU groups with max pooling,
followed by fully-connected layers — at CPU width and depth.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import Conv2d, Dense, Flatten, Layer, MaxPool2d
from repro.nn.model import Model


def build_vgg_small(input_shape: tuple[int, int, int], num_classes: int,
                    rng: np.random.Generator, *,
                    widths: tuple[int, ...] = (8, 16),
                    dense_width: int = 64,
                    dtype: np.dtype | str = np.float64) -> Model:
    """Small VGG: ``widths`` conv-pool groups, then two dense layers.

    Each group is ``Conv3x3 -> ReLU -> MaxPool2``, so input height/width
    must be divisible by ``2 ** len(widths)``.
    """
    in_c, h, w = input_shape
    factor = 2 ** len(widths)
    if h % factor or w % factor:
        raise ValueError(
            f"input {h}x{w} not divisible by pooling factor {factor}")
    layers: list[Layer] = []
    prev = in_c
    for width in widths:
        layers.extend([
            Conv2d(prev, width, 3, rng, padding=1, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
        ])
        prev = width
    layers.extend([
        Flatten(),
        Dense(prev * (h // factor) * (w // factor), dense_width, rng,
              dtype=dtype),
        ReLU(),
        Dense(dense_width, num_classes, rng, dtype=dtype),
    ])
    return Model(layers, name=f"vgg{len(widths)+2}")
