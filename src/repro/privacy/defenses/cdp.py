"""Central Differential Privacy (CDP) baseline.

Per §2.3/[33] (Naseri et al.): the *server* enforces DP — it bounds
each client's influence by clipping round deltas to S, averages, and
adds Gaussian noise ``N(0, (z * S / m)^2)`` to the aggregated delta
before sharing the model back (m = the clients the round averages —
its completion set, which ``on_round_start`` receives; z = noise
multiplier derived from the (epsilon, delta) budget across rounds).

Store-native: deltas, clipping and the Gaussian mechanism are flat
vector operations; the noise is one flat draw that consumes the
generator stream in layout order, matching the legacy per-array loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dtypes import gaussian
from repro.nn.store import WeightStore
from repro.privacy.defenses.accounting import PrivacyAccountant
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.ldp import clip_store


class CentralDP(Defense):
    """Server-side clipped-delta aggregation + Gaussian mechanism."""

    name = "cdp"

    def __init__(self, *, epsilon: float = 2.2, delta: float = 1e-5,
                 clip_norm: float = 3.0, rounds: int = 1,
                 noise_multiplier: float | None = None) -> None:
        self.epsilon = epsilon
        self.delta = delta
        self.clip_norm = clip_norm
        #: Clients the current round averages (set by on_round_start).
        self.num_clients: int | None = None
        self.rounds = max(rounds, 1)
        if noise_multiplier is None:
            # Advanced-composition-flavoured calibration: per-round
            # epsilon ~ eps / sqrt(rounds), Gaussian mechanism inverse.
            per_round_eps = epsilon / math.sqrt(self.rounds)
            noise_multiplier = math.sqrt(
                2.0 * math.log(1.25 / delta)) / per_round_eps
        self.noise_multiplier = noise_multiplier
        self.accountant = PrivacyAccountant(epsilon, delta)
        self._noise_buffer_bytes = 0

    def on_round_start(self, round_index, client_ids, template,
                       rng) -> None:
        self.num_clients = len(client_ids)

    def on_send_update(self, client_id: int, weights: WeightStore,
                       global_weights: WeightStore, num_samples: int,
                       rng: np.random.Generator,
                       state: np.ndarray | None = None) -> WeightStore:
        """Bound this client's influence (server-enforced clipping).

        In the CDP threat model the server is trusted, so the clipping
        conceptually happens there; implementing it in the upload path
        keeps the simulator's message flow unchanged.
        """
        bounded = clip_store(weights - global_weights, self.clip_norm)
        return global_weights + bounded

    def on_aggregate(self, weights: WeightStore,
                     global_weights: WeightStore,
                     rng: np.random.Generator) -> WeightStore:
        if not self.num_clients:
            raise RuntimeError("CDP noise needs the round's clients; "
                               "on_round_start must run first")
        noisy = weights - global_weights
        sigma = self.noise_multiplier * self.clip_norm / self.num_clients
        noisy.buffer += gaussian(rng, sigma, noisy.num_params,
                                 noisy.buffer.dtype)
        self.accountant.spend(
            self.epsilon / math.sqrt(self.rounds), self.delta)
        self._noise_buffer_bytes = noisy.nbytes
        return global_weights + noisy

    def state_bytes(self) -> int:
        return self._noise_buffer_bytes

    def describe(self) -> str:
        return (f"cdp(eps={self.epsilon}, delta={self.delta}, "
                f"clip={self.clip_norm}, z={self.noise_multiplier:.2f})")
