"""Model inversion attack (extension — the paper's §6 future work).

Given white-box access to a model, reconstruct a representative input
for a target class by gradient ascent on the input: start from noise
and maximize the class logit (optionally with an L2 prior).  Against
an unprotected model the reconstruction correlates with the class's
true prototype; against a DINAR-obfuscated upload it does not — the
randomized layer severs the path from logits back to input space.
"""

from __future__ import annotations

import numpy as np

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model


def invert_class(model: Model, target_class: int,
                 input_shape: tuple[int, ...], *,
                 rng: np.random.Generator | None = None,
                 steps: int = 120, lr: float = 0.5,
                 l2_prior: float = 1e-3) -> np.ndarray:
    """Reconstruct one representative input for ``target_class``.

    Returns an array of ``input_shape`` maximizing
    ``log p(target_class | x) - l2_prior * ||x||^2``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rng = rng or np.random.default_rng(0)
    x = rng.standard_normal((1, *input_shape)) * 0.1
    loss = SoftmaxCrossEntropy()
    y = np.array([target_class])
    for _ in range(steps):
        logits = model.forward(x, training=False)
        loss.forward(logits, y, workspace=model.workspace)
        grad_input = model.backward(loss.backward())
        # descend the loss (= ascend the class log-probability), with
        # an L2 pull toward small inputs as the image prior
        x = x - lr * (grad_input + l2_prior * x)
    return x[0]


def inversion_fidelity(reconstruction: np.ndarray,
                       class_samples: np.ndarray) -> float:
    """Pearson correlation between a reconstruction and the mean of
    real samples of the class (1.0 = perfect recovery, ~0 = nothing)."""
    if len(class_samples) == 0:
        raise ValueError("need at least one real sample of the class")
    target = class_samples.mean(axis=0).ravel()
    rec = reconstruction.ravel()
    if target.std() == 0 or rec.std() == 0:
        return 0.0
    return float(np.corrcoef(rec, target)[0, 1])


def class_inversion_report(model: Model, x: np.ndarray, y: np.ndarray,
                           classes: list[int] | None = None, *,
                           rng: np.random.Generator | None = None,
                           steps: int = 120) -> dict[int, float]:
    """Fidelity of inversion per class against real data ``(x, y)``."""
    rng = rng or np.random.default_rng(0)
    classes = classes if classes is not None \
        else sorted(np.unique(y).tolist())
    report = {}
    for cls in classes:
        reconstruction = invert_class(
            model, cls, x.shape[1:], rng=rng, steps=steps)
        report[cls] = inversion_fidelity(reconstruction, x[y == cls])
    return report
