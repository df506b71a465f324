"""Weak Differential Privacy (WDP) baseline.

Per §2.3/[43] (Sun et al., "Can You Really Backdoor Federated
Learning?") and §5.2: norm-bound each client's round *delta* (update
minus the round's global model) to 5 and add Gaussian noise with
sigma = 0.025.  Operating on deltas — not raw weights — is what makes
the mechanism "weak": the bound rarely bites and the noise is small,
so utility survives but the membership signal is only mildly damped
(the paper's Fig. 6 shows WDP failing to reach 50%).

Store-native: the delta, the norm bound and the noise are single
vectorized operations on the flat weight plane; the noise is drawn in
one flat pass that consumes the generator stream in layout order —
the same values the legacy per-array loop drew.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtypes import gaussian
from repro.nn.store import WeightStore
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.ldp import clip_store


class WeakDP(Defense):
    """Norm-bounded round deltas + low-magnitude Gaussian noise."""

    name = "wdp"

    def __init__(self, *, norm_bound: float = 5.0,
                 sigma: float = 0.025) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if norm_bound <= 0:
            raise ValueError(f"norm_bound must be positive, "
                             f"got {norm_bound}")
        self.norm_bound = norm_bound
        self.sigma = sigma
        self._noise_buffer_bytes = 0

    def on_round_start(self, round_index, client_ids, template,
                       rng) -> None:
        # one noise buffer the size of the model
        self._noise_buffer_bytes = template.nbytes

    def on_send_update(self, client_id: int, weights: WeightStore,
                       global_weights: WeightStore, num_samples: int,
                       rng: np.random.Generator,
                       state: np.ndarray | None = None) -> WeightStore:
        delta = weights - global_weights
        bounded = clip_store(delta, self.norm_bound)
        bounded.buffer += gaussian(rng, self.sigma, bounded.num_params,
                                   bounded.buffer.dtype)
        return global_weights + bounded

    def state_bytes(self) -> int:
        return self._noise_buffer_bytes

    def describe(self) -> str:
        return f"wdp(bound={self.norm_bound}, sigma={self.sigma})"
