"""Data preprocessing transforms (§4.1's "classical data preprocessing
techniques").

Transforms follow the fit/apply split every leakage-aware pipeline
needs: statistics are fit on the training (member) pool only, then
applied everywhere — fitting on the test pool would itself leak
membership information into the model.
"""

from __future__ import annotations

import numpy as np


class Standardizer:
    """Zero-mean unit-variance scaling per feature."""

    def __init__(self) -> None:
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "Standardizer":
        if len(x) == 0:
            raise ValueError("cannot fit on an empty array")
        self.mean = x.mean(axis=0)
        self.std = x.std(axis=0) + 1e-8
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("fit() before transform()")
        return (x - self.mean) / self.std

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("fit() before inverse_transform()")
        return x * self.std + self.mean


class MinMaxScaler:
    """Scale features into [0, 1] based on fitted extrema."""

    def __init__(self) -> None:
        self.low: np.ndarray | None = None
        self.span: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        if len(x) == 0:
            raise ValueError("cannot fit on an empty array")
        self.low = x.min(axis=0)
        self.span = x.max(axis=0) - self.low + 1e-12
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.low is None:
            raise RuntimeError("fit() before transform()")
        return (x - self.low) / self.span

