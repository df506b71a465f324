"""Difficulty-calibrated membership inference (Watson et al., 2022).

The loss-threshold attack confuses *hard* samples with *non-members*:
an intrinsically difficult sample has high loss whether or not it was
trained on. Calibrating against reference models fixes this — the
attacker trains k reference models on its own data (the candidate is a
non-member of every reference) and scores

    score(x) = mean_ref_loss(x) - target_loss(x)

i.e. how much *better* the target model fits the sample than models
that provably never saw it. This is the strongest black-box attacker
in the suite and an extension beyond the paper's Shokri attacker.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.data.synthetic import Dataset
from repro.nn.model import Model
from repro.privacy.attacks.features import per_example_loss
from repro.privacy.attacks.shadow import train_on_rows


class ReferenceCalibratedAttack:
    """Score candidates by reference-calibrated loss."""

    name = "reference_calibrated"

    def __init__(self, model_factory: Callable[[np.random.Generator], Model],
                 *, num_references: int = 3, epochs: int = 8,
                 lr: float = 0.05, batch_size: int = 64,
                 subsample: float = 0.5, seed: int = 0) -> None:
        """
        Parameters
        ----------
        num_references:
            Reference models to train; more = smoother calibration.
        subsample:
            Fraction of the attacker data each reference trains on
            (independent draws decorrelate the references).
        """
        if num_references < 1:
            raise ValueError(
                f"num_references must be >= 1, got {num_references}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0,1], got {subsample}")
        self.model_factory = model_factory
        self.num_references = num_references
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.subsample = subsample
        self.seed = seed
        self._references: list[Model] = []

    def fit(self, source: Dataset,
            rows: np.ndarray) -> "ReferenceCalibratedAttack":
        """Train the reference models on the attacker's own data,
        ``source``'s ``rows``, gathered batch by batch and never copied
        whole."""
        self._references = []
        for idx in range(self.num_references):
            rng = np.random.default_rng((self.seed, idx))
            take = max(1, int(len(rows) * self.subsample))
            subset = rows[rng.choice(len(rows), size=take, replace=False)]
            self._references.append(train_on_rows(
                self.model_factory(rng), source, subset, rng,
                epochs=self.epochs, lr=self.lr,
                batch_size=self.batch_size))
        return self

    def score(self, model: Model, x: np.ndarray,
              y: np.ndarray) -> np.ndarray:
        """Higher = more likely a member of the *target* model's set."""
        if not self._references:
            raise RuntimeError("call fit() before score()")
        target = per_example_loss(model, x, y)
        reference = np.mean(
            [per_example_loss(ref, x, y) for ref in self._references],
            axis=0)
        return reference - target
