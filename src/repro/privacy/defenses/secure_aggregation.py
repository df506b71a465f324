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
as one vectorized add.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.dtypes import standard_normal
from repro.nn.store import Layout, WeightStore
from repro.privacy.defenses.base import Defense


class SecureAggregation(Defense):
    """Pairwise-mask secure aggregation (Bonawitz-style, simulated)."""

    name = "sa"
    pre_weighted = True
    # Pairwise masks only cancel when both endpoints of every pair make
    # it into the sum: a missing client leaves its partners' masks
    # un-cancelled and the aggregate silently corrupt.  Declaring it
    # lets the fleet plane reject dropout configs before any mask is
    # ever negotiated.
    requires_full_cohort = True

    def __init__(self, *, mask_scale: float = 50.0) -> None:
        if mask_scale <= 0:
            raise ValueError(f"mask_scale must be positive, "
                             f"got {mask_scale}")
        self.mask_scale = mask_scale
        self._layout: Layout | None = None
        self._masks: dict[int, np.ndarray] = {}

    def on_round_start(self, round_index: int, client_ids: Sequence[int],
                       template: WeightStore,
                       rng: np.random.Generator) -> None:
        """Negotiate pairwise masks for this round's cohort.

        The per-pair PRG seed models the Diffie-Hellman shared secret of
        the real protocol; both endpoints derive the same mask and apply
        it with opposite signs, so the cohort-wide sum is exactly zero.
        """
        self._layout = template.layout
        num_params = self._layout.num_params
        dtype = self._layout.dtype
        self._masks = {
            cid: np.zeros(num_params, dtype=dtype) for cid in client_ids
        }
        ids = sorted(client_ids)
        for pos, i in enumerate(ids):
            for j in ids[pos + 1:]:
                pair_rng = np.random.default_rng(
                    (int(round_index), int(i), int(j)))
                pair_mask = standard_normal(pair_rng, num_params, dtype)
                pair_mask *= self.mask_scale
                self._masks[i] += pair_mask
                self._masks[j] -= pair_mask

    def on_send_update(self, client_id: int, weights: WeightStore,
                       num_samples: int,
                       rng: np.random.Generator) -> WeightStore:
        """Transmit ``num_samples * weights + mask`` (pre-weighted)."""
        if client_id not in self._masks:
            raise RuntimeError(
                f"client {client_id} has no mask for this round; "
                "on_round_start must run first")
        masked = weights * float(num_samples)
        masked.buffer += self._masks[client_id]
        return masked

    # ------------------------------------------------------------------
    # executor state protocol: a client's state is its round mask
    # ------------------------------------------------------------------
    def export_client_state(self, client_id: int):
        return self._masks.get(client_id)

    def import_client_state(self, client_id: int, state) -> None:
        if state is None:
            self._masks.pop(client_id, None)
        else:
            self._masks[client_id] = state

    def export_round_state(self):
        return self._layout

    def import_round_state(self, state) -> None:
        if state is not None:
            self._layout = state

    def state_bytes(self) -> int:
        return sum(mask.nbytes for mask in self._masks.values())

    def describe(self) -> str:
        return f"sa(mask_scale={self.mask_scale})"
