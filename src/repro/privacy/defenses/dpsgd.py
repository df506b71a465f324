"""DP-SGD: differentially private local training (Abadi et al., 2016).

The paper's LDP baseline runs on Opacus, which implements DP-SGD:
gradients are clipped to an L2 bound and Gaussian noise proportional to
``noise_multiplier * clip / batch_size`` is added before the descent
step.  This module provides the optimizer plus the inverse of the
moments-accountant heuristic used to pick the noise multiplier from a
target (epsilon, delta) budget.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dtypes import gaussian
from repro.nn.model import Model
from repro.nn.optim import Optimizer
from repro.nn.store import chunked_sq_sum


def dp_sgd_noise_multiplier(epsilon: float, delta: float, *,
                            sample_rate: float, steps: int) -> float:
    """Noise multiplier for a DP-SGD run hitting (epsilon, delta).

    Inverts the moments-accountant bound of Abadi et al. (2016),
    ``epsilon ≈ q * sqrt(T * ln(1/delta)) / sigma`` — the same
    first-order calibration Opacus performs.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in (0,1], "
                         f"got {sample_rate}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return sample_rate * math.sqrt(steps * math.log(1.0 / delta)) / epsilon


class DPSGD(Optimizer):
    """SGD with batch-gradient clipping and Gaussian noise.

    Clips the whole-model gradient of each batch to ``clip_norm`` and
    adds ``N(0, (noise_multiplier * clip_norm / batch)^2)`` per
    coordinate, where ``batch`` is the current batch size (the
    batch-mean gradient has sensitivity ``clip_norm / batch``).
    """

    def __init__(self, model: Model, lr: float, *, clip_norm: float = 1.0,
                 noise_multiplier: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(model, lr)
        if clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {clip_norm}")
        if noise_multiplier < 0:
            raise ValueError(f"noise_multiplier must be >= 0, "
                             f"got {noise_multiplier}")
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self.rng = rng or np.random.default_rng(0)
        self._last_batch_size = 1

    def notify_batch_size(self, batch_size: int) -> None:
        """Tell the optimizer the current batch size (for noise scale)."""
        self._last_batch_size = max(1, int(batch_size))

    def step(self) -> None:
        """Whole-model clip + noise + descent as flat vector ops.

        The squared norm folds per trainable layout entry
        (:func:`~repro.nn.store.chunked_sq_sum` over
        ``Layout.param_entry_slices``) and the Gaussian noise is drawn
        once per ``Layout.param_segments`` run, in layout order, so
        both the clip scale and the RNG stream match the legacy
        per-``(layer, key)`` loop bitwise while skipping non-trainable
        buffer coordinates.
        """
        self.steps += 1
        if self._paramless:
            return
        params, grads = self._flat_buffers()
        layout = self.model.weight_layout()
        norm = math.sqrt(chunked_sq_sum(grads, layout.param_entry_slices))
        scale = min(1.0, self.clip_norm / max(norm, 1e-12))
        noise_std = (self.noise_multiplier * self.clip_norm
                     / self._last_batch_size)
        update = grads * scale
        if noise_std > 0:
            for run in layout.param_segments:
                update[run] += gaussian(self.rng, noise_std,
                                        run.stop - run.start, update.dtype)
        params -= self.lr * update

    def _update_flat(self, params, grads) -> None:  # pragma: no cover
        raise RuntimeError("DPSGD overrides step() directly")
