"""M-series raw-waveform classifier stand-in for the paper's M18.

Dai et al. (2017)'s M-series nets are deep stacks of Conv1d/MaxPool1d
over raw audio; this builds the same shape (an "M5-like" net) sized for
synthetic 1-D waveforms.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import Conv1d, Dense, Flatten, Layer, MaxPool1d
from repro.nn.model import Model


def build_audio_m5(input_shape: tuple[int, int], num_classes: int,
                   rng: np.random.Generator, *,
                   widths: tuple[int, ...] = (8, 16),
                   dtype: np.dtype | str = np.float64) -> Model:
    """Deep 1-D conv net over raw waveforms.

    Parameters
    ----------
    input_shape:
        ``(channels, length)``; length must survive an initial stride-4
        conv and a MaxPool1d(4) per width group.
    """
    in_c, length = input_shape
    layers: list[Layer] = [
        Conv1d(in_c, widths[0], 9, rng, stride=4, padding=4, dtype=dtype),
        ReLU(),
        MaxPool1d(4),
    ]
    current_len = ((length + 2 * 4 - 9) // 4 + 1) // 4
    prev = widths[0]
    for width in widths[1:]:
        layers.extend([
            Conv1d(prev, width, 3, rng, padding=1, dtype=dtype),
            ReLU(),
            MaxPool1d(4),
        ])
        current_len //= 4
        prev = width
    if current_len < 1:
        raise ValueError(f"waveform length {length} too short for "
                         f"{len(widths)} pooling stages")
    layers.extend([
        Flatten(),
        Dense(prev * current_len, num_classes, rng, dtype=dtype),
    ])
    return Model(layers, name=f"audio_m{2*len(widths)+1}")
