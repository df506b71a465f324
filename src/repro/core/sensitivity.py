"""Layer-level privacy-sensitivity analysis (§3, §4.1).

For a trained model, compute the gradients each layer produces on
member batches and on non-member batches, then measure the
Jensen-Shannon divergence between the two gradient distributions per
layer.  The layer with the highest divergence (the largest
"generalization gap") leaks the most membership information and is the
one DINAR obfuscates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.divergence import js_divergence_from_samples
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.privacy.attacks.gradient import per_example_layer_gradient_norms


@dataclass
class LayerSensitivity:
    """Per-layer divergence profile of one model."""

    layer_names: list[str]
    divergences: np.ndarray  # shape (J,)

    @property
    def most_sensitive_layer(self) -> int:
        """Index p of the layer leaking the most membership signal."""
        return int(np.argmax(self.divergences))

    def as_rows(self) -> list[tuple[int, str, float]]:
        """(index, name, divergence) rows for reporting."""
        return [
            (i, name, float(d))
            for i, (name, d) in enumerate(
                zip(self.layer_names, self.divergences))
        ]


def layer_divergences(model: Model, member_x: np.ndarray,
                      member_y: np.ndarray, nonmember_x: np.ndarray,
                      nonmember_y: np.ndarray, *,
                      rng: np.random.Generator | None = None,
                      method: str = "gradient_norms",
                      max_samples: int = 128,
                      batch_size: int = 32, num_batches: int = 8,
                      num_bins: int = 30,
                      max_values_per_layer: int = 50_000,
                      loss: Loss | None = None) -> LayerSensitivity:
    """Measure each layer's member/non-member gradient divergence.

    Two measurement methods:

    * ``"gradient_norms"`` (default): per-sample backward passes; each
      sample is summarized by its per-layer gradient L2 norm, and the
      JS divergence is taken between the member and non-member norm
      distributions.  This is the membership-relevant view — a member's
      gradients are small where the model memorized it — and is what
      DINAR's initialization votes on.
    * ``"gradient_values"``: pools the raw flattened gradient values of
      ``num_batches`` batches per population and takes the JS
      divergence of the value histograms (a coarser, cheaper proxy).
    """
    rng = rng or np.random.default_rng(0)
    loss = loss or SoftmaxCrossEntropy()
    if method == "gradient_norms":
        member_obs = _norm_observations(
            model, member_x, member_y, rng, max_samples, loss)
        nonmember_obs = _norm_observations(
            model, nonmember_x, nonmember_y, rng, max_samples, loss)
        divergences = np.array([
            _debiased_js(member_obs[:, j], nonmember_obs[:, j],
                         num_bins, rng)
            for j in range(model.num_trainable_layers)
        ])
    elif method == "gradient_values":
        member_pool = _gradient_pools(
            model, member_x, member_y, rng, batch_size, num_batches, loss)
        nonmember_pool = _gradient_pools(
            model, nonmember_x, nonmember_y, rng, batch_size, num_batches,
            loss)
        divergences = np.array([
            js_divergence_from_samples(
                _subsample(member_pool[j], max_values_per_layer, rng),
                _subsample(nonmember_pool[j], max_values_per_layer, rng),
                num_bins=num_bins)
            for j in range(model.num_trainable_layers)
        ])
    else:
        raise ValueError(f"unknown method {method!r}; known: "
                         "gradient_norms, gradient_values")
    return LayerSensitivity(
        layer_names=model.layer_names(), divergences=divergences)


def _debiased_js(a: np.ndarray, b: np.ndarray, num_bins: int,
                 rng: np.random.Generator, *,
                 null_rounds: int = 4) -> float:
    """JS divergence with a permutation-null bias correction.

    Finite-sample histograms of two *identical* distributions still
    show a positive JS value (the estimator's bias floor); measuring
    that floor on random re-splits of the pooled samples and
    subtracting it leaves only the real member/non-member signal, so
    an untrained model reads ~0.
    """
    raw = js_divergence_from_samples(a, b, num_bins=num_bins)
    pooled = np.concatenate([a, b])
    null = 0.0
    for _ in range(null_rounds):
        perm = rng.permutation(pooled)
        null += js_divergence_from_samples(
            perm[:len(a)], perm[len(a):], num_bins=num_bins)
    return max(0.0, raw - null / null_rounds)


def _norm_observations(model: Model, x: np.ndarray, y: np.ndarray,
                       rng: np.random.Generator, max_samples: int,
                       loss: Loss) -> np.ndarray:
    """Per-sample per-layer gradient norms, shape (n, J)."""
    if len(x) == 0:
        raise ValueError("population is empty")
    idx = rng.choice(len(x), size=min(len(x), max_samples),
                     replace=False)
    return per_example_layer_gradient_norms(model, x[idx], y[idx],
                                            loss=loss)


def _gradient_pools(model: Model, x: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator, batch_size: int,
                    num_batches: int, loss: Loss) -> list[np.ndarray]:
    """Pooled flattened gradients per layer across sampled batches."""
    if len(x) == 0:
        raise ValueError("population is empty")
    pools: list[list[np.ndarray]] = [
        [] for _ in range(model.num_trainable_layers)
    ]
    for _ in range(num_batches):
        idx = rng.choice(len(x), size=min(batch_size, len(x)),
                         replace=False)
        vectors = model.per_layer_gradient_vectors(x[idx], y[idx], loss)
        for layer_idx, vec in enumerate(vectors):
            pools[layer_idx].append(vec)
    return [np.concatenate(p) for p in pools]


def _subsample(values: np.ndarray, limit: int,
               rng: np.random.Generator) -> np.ndarray:
    if values.size <= limit:
        return values
    return rng.choice(values, size=limit, replace=False)
