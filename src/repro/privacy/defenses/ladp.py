"""Layer-wise adaptive DP (LaDP) over the flat buffer's layers.

PAPERS.md's "Local Layer-wise Differential Privacy in Federated
Learning": instead of one uniform (epsilon, delta) budget over the
whole update, split the per-round budget across layers so the most
membership-sensitive layers — the ones DINAR's Jensen-Shannon analysis
(:func:`repro.core.sensitivity.layer_divergences`) ranks highest — get
the larger epsilon share and therefore the *least* distortion, while
low-information layers absorb proportionally more noise.  At a matched
total budget this trades noise from where it destroys utility to where
it doesn't (the bench gates this against uniform-share LaDP).

Mechanically each release is a WDP-shaped round-delta mechanism, but
per layer: clip layer j's trainable coordinates to
``clip_norm / sqrt(J)`` (so the per-layer bounds compose back to the
whole-model ``clip_norm``), then add Gaussian noise with
``sigma_j = gaussian_sigma(eps_j, delta_j, clip_j)`` where
``eps_j = share_j * epsilon / sqrt(rounds)`` and ``delta_j = delta/J``
— sequential composition across the J per-layer releases of one
update.  Layer j's trainable coordinates are the entry slices
``Layout.layer_param_slices(j)``; norms fold over them with
:func:`~repro.nn.store.chunked_sq_sum`, and scaling and noise go one
entry at a time (one Gaussian draw per entry, in layout order).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.nn.dtypes import gaussian
from repro.nn.store import WeightStore, chunked_sq_sum
from repro.privacy.defenses.accounting import (
    PrivacyAccountant,
    gaussian_sigma,
)
from repro.privacy.defenses.base import Defense


def allocate_shares(divergences: Sequence[float], *,
                    floor: float = 0.2) -> np.ndarray:
    """Per-layer epsilon shares from sensitivity divergences.

    ``floor`` of the budget is split uniformly (every layer keeps a
    guaranteed minimum — a layer with zero measured divergence must
    still be released under *some* epsilon), the rest proportionally
    to each layer's divergence: more sensitive layer → larger share →
    less noise.  All-zero divergences degrade to uniform shares.
    Shares sum to 1.
    """
    if not 0.0 <= floor <= 1.0:
        raise ValueError(f"floor must be in [0, 1], got {floor}")
    d = np.asarray(divergences, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("divergences must be a non-empty 1-D sequence")
    if np.any(d < 0):
        raise ValueError("divergences must be non-negative")
    total = d.sum()
    if total <= 0:
        return np.full(d.size, 1.0 / d.size)
    return floor / d.size + (1.0 - floor) * d / total


class LayerwiseDP(Defense):
    """Per-layer epsilon allocation over layer-wise clip + noise."""

    name = "ladp"

    def __init__(self, *, epsilon: float = 2.2, delta: float = 1e-5,
                 clip_norm: float = 3.0, rounds: int = 1,
                 divergences: Sequence[float] | None = None,
                 shares: Sequence[float] | None = None,
                 share_floor: float = 0.2) -> None:
        """
        Parameters
        ----------
        epsilon, delta:
            Target budget for the whole run (paper's setting: 2.2,
            1e-5); split ``epsilon / sqrt(rounds)`` per round by
            advanced composition, like CDP.
        clip_norm:
            Whole-model L2 bound on the round delta; each segment is
            clipped to ``clip_norm / sqrt(J)``.
        divergences:
            Per-layer sensitivity scores (e.g. from
            :func:`~repro.core.sensitivity.layer_divergences`); turned
            into epsilon shares via :func:`allocate_shares`.
        shares:
            Explicit per-layer epsilon shares (overrides
            ``divergences``); must sum to ~1.
        share_floor:
            Uniform fraction of the budget every layer keeps when
            shares are derived from divergences.
        """
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        if clip_norm <= 0:
            raise ValueError(
                f"clip_norm must be positive, got {clip_norm}")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.epsilon = epsilon
        self.delta = delta
        self.clip_norm = clip_norm
        self.rounds = rounds
        self.share_floor = share_floor
        if shares is not None:
            shares = np.asarray(shares, dtype=np.float64)
            if np.any(shares <= 0):
                raise ValueError("all shares must be positive")
            if abs(float(shares.sum()) - 1.0) > 1e-6:
                raise ValueError(
                    f"shares must sum to 1, got {shares.sum():.6f}")
        self._shares = shares
        self._divergences = None if divergences is None \
            else np.asarray(divergences, dtype=np.float64)
        self.accountant = PrivacyAccountant(epsilon, delta)
        self._plan: list[dict] | None = None
        self._noise_buffer_bytes = 0

    # ------------------------------------------------------------------
    # budget plan
    # ------------------------------------------------------------------
    def _layer_shares(self, num_layers: int) -> np.ndarray:
        if self._shares is not None:
            shares = self._shares
        elif self._divergences is not None:
            shares = allocate_shares(self._divergences,
                                     floor=self.share_floor)
        else:
            shares = np.full(num_layers, 1.0 / num_layers)
        if shares.size != num_layers:
            raise ValueError(
                f"got {shares.size} shares/divergences for a model "
                f"with {num_layers} layers")
        return shares

    def _resolve_plan(self, layout) -> None:
        """Fix the per-layer (epsilon, clip, sigma) schedule.

        Deterministic from the layout alone, so an instance that never
        ran ``on_round_start`` resolves the same plan from the received
        global model's layout — no plan data crosses the IPC boundary.
        """
        shares = self._layer_shares(layout.num_layers)
        live_layers = [i for i in range(layout.num_layers)
                       if layout.layer_param_slices(i)]
        j = len(live_layers)
        if j == 0:
            self._plan = []
            return
        # Budget shares land only on parameter-bearing layers; a
        # buffer-only layer releases nothing, so its share re-spreads
        # over the layers that do (renormalized).
        live = np.array([shares[i] for i in live_layers])
        live = live / live.sum()
        eps_round = self.epsilon / math.sqrt(self.rounds)
        clip_j = self.clip_norm / math.sqrt(j)
        delta_j = self.delta / j
        self._plan = [
            {
                "segment": i,
                "name": f"layer{i}",
                "share": float(share),
                "epsilon": float(share * eps_round),
                "clip": clip_j,
                "sigma": gaussian_sigma(share * eps_round, delta_j,
                                        clip_j),
                "params": sum(sl.stop - sl.start
                              for sl in layout.layer_param_slices(i)),
            }
            for i, share in zip(live_layers, live)
        ]

    def segment_report(self) -> list[dict]:
        """Per-layer budget rows (name, share, epsilon, sigma) for
        cost accounting and the CLI summary; empty before round 1."""
        return list(self._plan or [])

    # ------------------------------------------------------------------
    # round hooks
    # ------------------------------------------------------------------
    def on_round_start(self, round_index, client_ids, template,
                       rng) -> None:
        self._resolve_plan(template.layout)
        self._noise_buffer_bytes = template.nbytes
        self.accountant.spend(self.epsilon / math.sqrt(self.rounds),
                              self.delta)

    def on_send_update(self, client_id: int, weights: WeightStore,
                       global_weights: WeightStore, num_samples: int,
                       rng: np.random.Generator,
                       state: np.ndarray | None = None) -> WeightStore:
        if self._plan is None:  # called without a round start
            self._resolve_plan(global_weights.layout)
        delta = weights - global_weights
        buf = delta.buffer
        for entry in self._plan:
            slices = delta.layout.layer_param_slices(entry["segment"])
            norm = math.sqrt(chunked_sq_sum(buf, slices))
            if norm > entry["clip"]:
                factor = entry["clip"] / norm
                for sl in slices:
                    buf[sl] *= factor
            for sl in slices:
                buf[sl] += gaussian(rng, entry["sigma"],
                                    sl.stop - sl.start, buf.dtype)
        return global_weights + delta

    def state_bytes(self) -> int:
        return self._noise_buffer_bytes

    def describe(self) -> str:
        kind = "explicit" if self._shares is not None else (
            "sensitivity" if self._divergences is not None
            else "uniform")
        return (f"ladp(eps={self.epsilon}, delta={self.delta}, "
                f"clip={self.clip_norm}, rounds={self.rounds}, "
                f"shares={kind})")
