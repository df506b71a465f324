"""DINAR: the paper's contribution (§4, Algorithm 1).

DINAR is a client-side defense with three moving parts per FL round:

* **Model personalization** (§4.3, Alg. 1 lines 1–6): on receiving the
  global model, the client restores its stored, non-obfuscated private
  layer ``p`` and uses the result as its personalized model.
* **Adaptive model training** (§4.4, Alg. 1 lines 7–14): local epochs
  with Adagrad-style adaptive gradient descent (``G += g**2``,
  ``theta -= lr * g / sqrt(G + 1e-5)``), rebuilt with ``G = 0`` each
  round.
* **Model obfuscation** (§4.2, Alg. 1 lines 15–17): before upload, the
  client stores its private layer ``p`` as ``theta_p*`` and replaces
  the transmitted copy with random values.

Initialization (§4.1) — choosing ``p`` — is a one-off distributed vote
over per-client layer-sensitivity measurements; see
:func:`dinar_initialization`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.data.loader import iterate_batches
from repro.data.synthetic import Dataset
from repro.nn.dtypes import standard_normal
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import Optimizer, make_optimizer
from repro.nn.store import Layout, WeightStore
from repro.privacy.defenses.base import Defense

if TYPE_CHECKING:
    from repro.core.consensus import ConsensusResult
    from repro.core.sensitivity import LayerSensitivity


class DINAR(Defense):
    """The DINAR privacy-protection pipeline (Algorithm 1)."""

    name = "dinar"

    def __init__(self, private_layer: int = -2, *,
                 obfuscation: str = "scaled",
                 obfuscation_scale: float = 3.0,
                 optimizer: str = "adagrad",
                 lr: float | None = 0.005,
                 personalize: bool = True,
                 extra_layers: Sequence[int] = ()) -> None:
        """
        Parameters
        ----------
        private_layer:
            Index ``p`` of the privacy-sensitive layer among the
            model's trainable layers.  Negative indices count from the
            back; the default ``-2`` is the penultimate layer the
            paper's consensus typically converges to.  Use
            :func:`dinar_initialization` to determine it empirically.
        obfuscation:
            ``"scaled"`` (default) replaces layer ``p`` with Gaussian
            random values whose std matches the replaced array's own
            std — random values indistinguishable in magnitude from a
            real layer, so the protected model's outputs stay in a
            normal range (the "similar and low" loss distributions of
            Fig. 3).  ``"gaussian"`` uses plain N(0, scale^2) values.
        obfuscation_scale:
            Std multiplier for the random values replacing layer ``p``.
        optimizer:
            Local-training optimizer name; ``"adagrad"`` is Algorithm 1,
            the others back the Fig. 11 ablation.
        lr:
            Learning rate for the adaptive optimizer.  Adaptive methods
            take near-sign-sized early steps, so they need a smaller
            rate than the plain-SGD baseline; None inherits the
            experiment's configured rate.
        personalize:
            Disable to ablate the personalization step (§4.3): the
            client then trains from the received — obfuscated — global
            layer instead of restoring its own, which collapses
            utility and shows personalization is load-bearing.
        extra_layers:
            Additional layer indices to obfuscate (the Fig. 5
            multi-layer study); empty for standard DINAR.
        """
        if obfuscation_scale <= 0:
            raise ValueError(
                f"obfuscation_scale must be positive, "
                f"got {obfuscation_scale}")
        if obfuscation not in ("scaled", "gaussian"):
            raise ValueError(
                f"unknown obfuscation mode {obfuscation!r}; "
                "known: scaled, gaussian")
        self.obfuscation = obfuscation
        self.personalize = personalize
        self.private_layer = private_layer
        self.obfuscation_scale = obfuscation_scale
        self.optimizer_name = optimizer
        self.lr = lr
        self.extra_layers = tuple(extra_layers)

    # ------------------------------------------------------------------
    def _resolve(self, index: int, num_layers: int) -> int:
        resolved = index if index >= 0 else num_layers + index
        if not 0 <= resolved < num_layers:
            raise IndexError(
                f"private layer {index} out of range for a model with "
                f"{num_layers} trainable layers")
        return resolved

    def protected_indices(self, num_layers: int) -> list[int]:
        """All obfuscated layer indices, resolved and sorted."""
        indices = {self._resolve(self.private_layer, num_layers)}
        indices.update(
            self._resolve(i, num_layers) for i in self.extra_layers)
        return sorted(indices)

    def _coordinates(self, layout: Layout) -> np.ndarray:
        """Flat indices of the protected layers, in layer order: the
        layout of a client's state row, theta_p*."""
        return np.r_[tuple(layout.layer_slice(idx) for idx
                           in self.protected_indices(layout.num_layers))]

    def state_width(self, layout: Layout) -> int:
        return self._coordinates(layout).size

    def init_state(self, state: np.ndarray,
                   global_weights: WeightStore) -> None:
        # restoring the global's own layers changes nothing
        state[:] = global_weights.buffer[
            self._coordinates(global_weights.layout)]

    # ------------------------------------------------------------------
    # Algorithm 1, lines 1-6: model personalization
    # ------------------------------------------------------------------
    def on_receive_global(self, client_id: int, weights: WeightStore,
                          state: np.ndarray | None = None
                          ) -> WeightStore:
        if state is None or not self.personalize:
            return weights  # nothing stored / ablated: nothing to restore
        personalized = weights.copy()
        personalized.buffer[self._coordinates(weights.layout)] = state
        return personalized

    # ------------------------------------------------------------------
    # Algorithm 1, lines 7-14: adaptive model training
    # ------------------------------------------------------------------
    def make_optimizer(self, model: Model, lr: float,
                       rng: np.random.Generator | None = None) -> Optimizer:
        # Rebuilt every round by the client: G starts at 0 (line 8).
        return make_optimizer(
            self.optimizer_name, model, self.lr if self.lr else lr)

    # ------------------------------------------------------------------
    # Algorithm 1, lines 15-17: model obfuscation
    # ------------------------------------------------------------------
    def on_send_update(self, client_id: int, weights: WeightStore,
                       global_weights: WeightStore, num_samples: int,
                       rng: np.random.Generator,
                       state: np.ndarray | None = None) -> WeightStore:
        out = weights.copy()
        if state is not None:
            # theta_p* comes from the outbound weights: an adversary's
            # corrupted layer is what it stores.
            state[:] = weights.buffer[self._coordinates(weights.layout)]
        for layer_idx in self.protected_indices(out.layout.num_layers):
            for e in out.layout.layer_entries(layer_idx):
                view = out.view(layer_idx, e.key)
                # the noise std derives from the replaced array itself,
                # so the draw stays per-array (in layout order — the
                # same generator stream as the legacy loop)
                noise = standard_normal(rng, e.shape, out.layout.dtype)
                noise *= self._noise_std(view)
                view[:] = noise
        return out

    def _noise_std(self, array: np.ndarray) -> float:
        """Std of the random values replacing one parameter array."""
        if self.obfuscation == "gaussian":
            return self.obfuscation_scale
        # scaled: match the replaced array's own magnitude (floored so
        # an all-zero bias vector still gets non-degenerate noise)
        return self.obfuscation_scale * max(float(array.std()), 1e-3)

    def describe(self) -> str:
        extra = f", extra={list(self.extra_layers)}" if self.extra_layers \
            else ""
        return (f"dinar(p={self.private_layer}, "
                f"opt={self.optimizer_name}{extra})")


# ----------------------------------------------------------------------
# §4.1: DINAR initialization
# ----------------------------------------------------------------------

@dataclass
class InitializationResult:
    """Outcome of the preliminary consensus phase."""

    private_layer: int
    consensus: ConsensusResult
    per_client_sensitivity: dict[int, LayerSensitivity]


def dinar_initialization(
        model_factory: Callable[[np.random.Generator], Model],
        client_datasets: Sequence[Dataset], *,
        warmup_epochs: int = 5, lr: float = 0.05, batch_size: int = 64,
        holdout_fraction: float = 0.3,
        byzantine: dict[int, str] | None = None,
        seed: int = 0) -> InitializationResult:
    """Run the preliminary phase: per-client analysis + distributed vote.

    Each client splits its local data into a used-for-training part
    ``D_m`` and a held-out part ``D_n`` (§4.1), trains a warm-up model
    on ``D_m``, measures per-layer member/non-member gradient
    divergence, and proposes its argmax layer.  The broadcast vote
    (optionally with injected Byzantine voters) fixes the global ``p``.
    """
    from repro.core.consensus import agree_on_private_layer
    from repro.core.sensitivity import layer_divergences

    if not client_datasets:
        raise ValueError("need at least one client dataset")
    proposals: dict[int, int] = {}
    sensitivities: dict[int, LayerSensitivity] = {}
    num_layers = None
    for client_id, data in enumerate(client_datasets):
        rng = np.random.default_rng((seed, client_id))
        order = rng.permutation(len(data))
        holdout = max(1, int(len(data) * holdout_fraction))
        d_n = data.subset(order[:holdout])
        d_m = data.subset(order[holdout:])

        model = model_factory(rng)
        loss = SoftmaxCrossEntropy()
        optimizer = make_optimizer("adagrad", model, lr)
        for _ in range(warmup_epochs):
            for bx, by in iterate_batches(d_m.x, d_m.y, batch_size, rng):
                model.loss_and_grad(bx, by, loss)
                optimizer.step()

        sensitivity = layer_divergences(
            model, d_m.x, d_m.y, d_n.x, d_n.y, rng=rng)
        sensitivities[client_id] = sensitivity
        proposals[client_id] = sensitivity.most_sensitive_layer
        num_layers = model.num_trainable_layers

    consensus = agree_on_private_layer(
        proposals, byzantine=byzantine, num_layers=num_layers, seed=seed)
    return InitializationResult(
        private_layer=consensus.decided_value,
        consensus=consensus,
        per_client_sensitivity=sensitivities,
    )
