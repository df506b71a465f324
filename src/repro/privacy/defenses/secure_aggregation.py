"""Secure Aggregation (SA) baseline.

Per §2.3/[54]: clients send cryptographically masked updates; masks
cancel in the server's sum, so the server learns only the aggregate.
This simulation reproduces SA's *observable* behaviour with seeded
pairwise PRG masks: for each cohort pair (i, j), i adds +m_ij and j
adds -m_ij to its pre-weighted update, so the sum — and hence the
global model — is exactly FedAvg, while every individual transmitted
update is statistically useless to a server-side attacker.

The paper's Fig. 6 shape follows mechanically: local-model attack AUC
drops to ~50% (the attacker sees masked noise) while the global model
is exactly as attackable as the no-defense baseline.

Store-native: each mask is one flat vector over the weight plane,
drawn in a single PRG call that consumes the pair stream in layout
order — the same values the legacy per-array loop drew — and applied
as one vectorized add.  Nothing per-client is stored: a client's mask
is a pure function of (round, sorted cohort, client id), derived in
whichever process trains the client.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.dtypes import standard_normal
from repro.nn.store import WeightStore
from repro.privacy.defenses.base import Defense


class SecureAggregation(Defense):
    """Pairwise-mask secure aggregation (Bonawitz-style, simulated)."""

    name = "sa"
    pre_weighted = True
    # Pairwise masks only cancel when both endpoints of every pair make
    # it into the sum: a missing client leaves its partners' masks
    # un-cancelled and the aggregate silently corrupt.  Declaring it
    # lets the fleet plane reject dropout configs before any mask is
    # ever drawn.
    requires_full_cohort = True

    def __init__(self, *, mask_scale: float = 50.0) -> None:
        if mask_scale <= 0:
            raise ValueError(f"mask_scale must be positive, "
                             f"got {mask_scale}")
        self.mask_scale = mask_scale
        #: The current round and its sorted cohort.
        self._round: tuple[int, tuple[int, ...]] | None = None

    def on_round_start(self, round_index: int, client_ids: Sequence[int],
                       template: WeightStore,
                       rng: np.random.Generator) -> None:
        """Record the round's cohort: every client derives its masks
        from it, wherever it trains."""
        self._round = (int(round_index), tuple(sorted(client_ids)))

    def client_mask(self, client_id: int, num_params: int,
                    dtype: np.dtype) -> np.ndarray:
        """One client's sum of pairwise masks for the current round.

        Both endpoints of pair ``(i, j)``, ``i < j``, draw its mask from
        a per-pair seed (the real protocol's Diffie-Hellman secret);
        ``i`` adds it and ``j`` subtracts it, so the cohort's masks sum
        to zero.  Lower ids come first, as in a loop over every pair of
        the sorted cohort, which keeps that loop's bits.
        """
        if self._round is None or client_id not in self._round[1]:
            raise RuntimeError(
                f"client {client_id} has no mask for this round; "
                "on_round_start must run first")
        round_index, cohort = self._round
        mask = np.zeros(num_params, dtype=dtype)
        for other in cohort:
            if other == client_id:
                continue
            low, high = sorted((other, client_id))
            pair_rng = np.random.default_rng(
                (round_index, int(low), int(high)))
            pair_mask = standard_normal(pair_rng, num_params, dtype)
            pair_mask *= self.mask_scale
            if other < client_id:
                mask -= pair_mask
            else:
                mask += pair_mask
        return mask

    def on_send_update(self, client_id: int, weights: WeightStore,
                       global_weights: WeightStore, num_samples: int,
                       rng: np.random.Generator,
                       state: np.ndarray | None = None) -> WeightStore:
        """Transmit ``num_samples * weights + mask`` (pre-weighted)."""
        mask = self.client_mask(client_id, weights.layout.num_params,
                                weights.layout.dtype)
        masked = weights * float(num_samples)
        masked.buffer += mask
        return masked

    def describe(self) -> str:
        return f"sa(mask_scale={self.mask_scale})"
