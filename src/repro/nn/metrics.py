"""Classification metrics used by the utility evaluation (Appendix A)."""

from __future__ import annotations

import numpy as np


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of correctly classified instances."""
    if len(predictions) != len(targets):
        raise ValueError(
            f"length mismatch: {len(predictions)} vs {len(targets)}")
    if len(targets) == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float((predictions == targets).mean())
