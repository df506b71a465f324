"""Gradient Compression (GC) baseline.

Per §2.3/[7]: compression "reduce[s] the amount of information
available for the attacker".  Implemented as top-k sparsification of
the client's round delta (update minus the round's global model) with
error feedback: coordinates dropped this round accumulate in a residual
that is added back next round.  The residual store is exactly why the
paper measures a large GC memory overhead ("storing the difference
between original and compressed gradients").

Store-native: the round delta *is* a flat vector on the weight plane,
so sparsification works directly on the store buffer — no flatten /
unflatten round-trips — and a client's residual is its state row, one
value per parameter.
"""

from __future__ import annotations

import numpy as np

from repro.nn.store import Layout, WeightStore
from repro.privacy.defenses.base import Defense


class GradientCompression(Defense):
    """Top-k sparsification of round deltas with error feedback."""

    name = "gc"

    def __init__(self, *, keep_ratio: float = 0.1) -> None:
        if not 0.0 < keep_ratio <= 1.0:
            raise ValueError(
                f"keep_ratio must be in (0, 1], got {keep_ratio}")
        self.keep_ratio = keep_ratio

    def state_width(self, layout: Layout) -> int:
        return layout.num_params

    def init_state(self, state: np.ndarray,
                   global_weights: WeightStore) -> None:
        # -0.0 is the exact additive identity (x + -0.0 == x for every
        # x, signed zeros included): a new client's first delta passes
        # through bit for bit.
        state.fill(-0.0)

    def on_send_update(self, client_id: int, weights: WeightStore,
                       global_weights: WeightStore, num_samples: int,
                       rng: np.random.Generator,
                       state: np.ndarray | None = None) -> WeightStore:
        delta = weights - global_weights
        flat = delta.buffer
        if state is not None:
            flat += state
        k = max(1, int(self.keep_ratio * flat.size))
        # Indices of the k largest magnitudes, unordered.
        cut = flat.size - k
        keep_idx = np.argpartition(np.abs(flat), cut)[cut:]
        sparse = np.zeros_like(flat)
        sparse[keep_idx] = flat[keep_idx]
        if state is not None:
            np.subtract(flat, sparse, out=state)
        return WeightStore(global_weights.layout,
                           global_weights.buffer + sparse)

    def upload_nbytes(self, weights: WeightStore,
                      global_weights: WeightStore) -> int:
        """GC transmits the sparse delta, not the dense model."""
        from repro.fl.network import sparse_nbytes
        return sparse_nbytes(weights, global_weights)

    def describe(self) -> str:
        return f"gc(keep={self.keep_ratio})"
