"""Local Differential Privacy (LDP) baseline.

The paper runs its DP baselines on Opacus (§5.3), i.e. DP-SGD during
local training: per-batch gradient clipping plus Gaussian noise
calibrated to the (epsilon, delta) budget — the paper's setting is
epsilon=2.2, delta=1e-5 (§5.2).  Because the noise is injected into
every local step, LDP protects the update a client transmits (local
*and* global model) at a substantial utility cost — exactly the
trade-off Figs. 6, 7 and 10 show.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import Model
from repro.nn.optim import Optimizer
from repro.nn.store import WeightStore
from repro.privacy.defenses.accounting import PrivacyAccountant
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.dpsgd import DPSGD, dp_sgd_noise_multiplier


def clip_store(store: WeightStore, max_norm: float) -> WeightStore:
    """Scale a store so its global L2 norm is <= max_norm (new store)."""
    return store.layout.segmented().clip(store, max_norm)


class LocalDP(Defense):
    """DP-SGD local training (the paper's Opacus-based LDP baseline)."""

    name = "ldp"

    def __init__(self, *, epsilon: float = 2.2, delta: float = 1e-5,
                 clip_norm: float = 1.0,
                 noise_multiplier: float | None = None,
                 sample_rate: float = 0.15, steps: int = 500,
                 seed: int = 0) -> None:
        """
        Parameters
        ----------
        epsilon, delta:
            Target budget for the whole run (paper: 2.2, 1e-5).
        noise_multiplier:
            Direct override; when None it is derived from the budget
            via the moments-accountant heuristic using
            ``sample_rate``/``steps`` as the planned training profile.
        """
        self.epsilon = epsilon
        self.delta = delta
        self.clip_norm = clip_norm
        if noise_multiplier is None:
            noise_multiplier = dp_sgd_noise_multiplier(
                epsilon, delta, sample_rate=sample_rate, steps=steps)
        self.noise_multiplier = noise_multiplier
        self.accountant = PrivacyAccountant(epsilon, delta)
        self.seed = seed
        self._released: dict[int, int] = {}
        self._optimizers = 0
        self._state_bytes = 0

    @property
    def updates_released(self) -> int:
        """Total updates released across all clients."""
        return sum(self._released.values())

    def make_optimizer(self, model: Model, lr: float,
                       rng: np.random.Generator | None = None) -> Optimizer:
        self._optimizers += 1
        # Per-parameter noise buffers live alongside the model, which is
        # what drives the paper's DP memory overhead — scaled by the
        # model's compute precision.
        self._state_bytes = (2 * model.num_parameters()
                             * model.dtype.itemsize)
        if rng is None:
            # Legacy standalone path: a fresh counter-derived stream.
            # FL rounds pass the client's (round, client) stream instead
            # so the noise is independent of construction order.
            rng = np.random.default_rng((self.seed, self._optimizers))
        return DPSGD(
            model, lr, clip_norm=self.clip_norm,
            noise_multiplier=self.noise_multiplier,
            rng=rng)

    def on_send_update(self, client_id: int, weights: WeightStore,
                       num_samples: int,
                       rng: np.random.Generator) -> WeightStore:
        # The privacy spend happened inside DP-SGD (accounted in the
        # noise-multiplier derivation); just count the release.
        self._released[client_id] = self._released.get(client_id, 0) + 1
        return weights

    # ------------------------------------------------------------------
    # executor state protocol: per-client release counts travel so the
    # parent's accounting stays exact under parallel execution
    # ------------------------------------------------------------------
    def export_client_state(self, client_id: int):
        return self._released.get(client_id, 0)

    def import_client_state(self, client_id: int, state) -> None:
        self._released[client_id] = int(state or 0)

    def state_bytes(self) -> int:
        return self._state_bytes

    def describe(self) -> str:
        return (f"ldp(eps={self.epsilon}, delta={self.delta}, "
                f"clip={self.clip_norm}, z={self.noise_multiplier:.2f})")
