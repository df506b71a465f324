"""Shadow-model membership inference (Shokri et al. [41]).

The attacker holds prior-knowledge data drawn from the same
distribution as the victims' (the paper gives it half of each dataset,
§5.1).  It trains ``num_shadows`` shadow models that imitate the victim
training procedure, labels its own data "in"/"out" per shadow, and
trains a binary attack classifier on the models' observable behaviour
(:func:`repro.privacy.attacks.features.attack_features`).  The fitted
classifier then scores candidates against any target model.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.data.loader import iterate_batches
from repro.data.synthetic import Dataset
from repro.nn.activations import ReLU
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.model import Model
from repro.nn.optim import SGD, Adam
from repro.privacy.attacks.features import attack_features


def train_on_rows(model: Model, source: Dataset, rows: np.ndarray,
                  rng: np.random.Generator, *, epochs: int, lr: float,
                  batch_size: int) -> Model:
    """Train ``model`` with SGD on ``source``'s ``rows``.

    Each batch is gathered from ``source`` when it is used, so the
    rows are never copied as a pool; the batches and the generator's
    draws equal training on ``source.subset(rows)``.  The model's
    workspace is cleared afterwards: its backward-only scratch is dead
    once training ends, and prediction requests buffers of its own.
    """
    labels = source.y[rows]
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model, lr)
    for _ in range(epochs):
        for batch, by in iterate_batches(rows, labels, batch_size, rng):
            model.loss_and_grad(source.x[batch], by, loss)
            optimizer.step()
    model.workspace.clear()
    return model


class ShadowAttack:
    """Shokri-style shadow-model MIA."""

    name = "shadow"

    def __init__(self, model_factory: Callable[[np.random.Generator], Model],
                 *, num_shadows: int = 3, epochs: int = 8,
                 lr: float = 0.05, batch_size: int = 64,
                 attack_epochs: int = 60, per_class: bool = False,
                 seed: int = 0) -> None:
        """
        Parameters
        ----------
        per_class:
            Shokri et al.'s original formulation trains one attack
            model per target class; the pooled single-model variant
            (default) is standard when per-class data is thin.
        """
        if num_shadows < 1:
            raise ValueError(f"num_shadows must be >= 1, got {num_shadows}")
        self.model_factory = model_factory
        self.num_shadows = num_shadows
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.attack_epochs = attack_epochs
        self.per_class = per_class
        self.seed = seed
        self._attack_model: Model | None = None
        self._class_models: dict[int, Model] = {}
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(self, source: Dataset, rows: np.ndarray) -> "ShadowAttack":
        """Train shadow models + the attack classifier(s) on the
        attacker's pool, ``source``'s ``rows``, gathered batch by batch
        and never copied whole."""
        features, labels, classes = [], [], []
        for shadow_idx in range(self.num_shadows):
            in_feat, in_cls, out_feat, out_cls = self._one_shadow(
                source, rows, shadow_idx)
            features.extend([in_feat, out_feat])
            labels.extend([np.ones(len(in_feat)),
                           np.zeros(len(out_feat))])
            classes.extend([in_cls, out_cls])
        x = np.concatenate(features)
        y = np.concatenate(labels).astype(np.int64)
        cls = np.concatenate(classes)
        self._mean = x.mean(axis=0)
        self._std = x.std(axis=0) + 1e-8
        x = (x - self._mean) / self._std

        self._attack_model = self._train_classifier(x, y, tag=99)
        if self.per_class:
            for target in np.unique(cls):
                mask = cls == target
                # a per-class model needs both labels well represented
                if mask.sum() >= 40 and 0 < y[mask].sum() < mask.sum():
                    self._class_models[int(target)] = \
                        self._train_classifier(x[mask], y[mask],
                                               tag=100 + int(target))
        return self

    def _train_classifier(self, x: np.ndarray, y: np.ndarray, *,
                          tag: int) -> Model:
        rng = np.random.default_rng((self.seed, tag))
        classifier = Model([
            Dense(x.shape[1], 32, rng),
            ReLU(),
            Dense(32, 2, rng),
        ], name=f"attack_classifier_{tag}")
        optimizer = Adam(classifier, 0.01)
        loss = SoftmaxCrossEntropy()
        for _ in range(self.attack_epochs):
            for bx, by in iterate_batches(x, y, 128, rng):
                classifier.loss_and_grad(bx, by, loss)
                optimizer.step()
        return classifier

    def _one_shadow(self, source: Dataset, rows: np.ndarray,
                    shadow_idx: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
        """Train one shadow model; return features + class labels for
        its member and non-member halves."""
        rng = np.random.default_rng((self.seed, shadow_idx))
        order = rng.permutation(len(rows))
        half = len(rows) // 2
        member = rows[order[:half]]
        nonmember = rows[order[half:]]

        shadow = train_on_rows(self.model_factory(rng), source, member,
                               rng, epochs=self.epochs, lr=self.lr,
                               batch_size=self.batch_size)
        member_y = source.y[member]
        nonmember_y = source.y[nonmember]
        return (attack_features(shadow, source.x[member], member_y),
                member_y,
                attack_features(shadow, source.x[nonmember], nonmember_y),
                nonmember_y)

    # ------------------------------------------------------------------
    def score(self, model: Model, x: np.ndarray,
              y: np.ndarray) -> np.ndarray:
        """Membership probability for each candidate (higher = member)."""
        if self._attack_model is None:
            raise RuntimeError("call fit() before score()")
        feats = attack_features(model, x, y)
        feats = (feats - self._mean) / self._std
        scores = softmax(
            self._attack_model.predict_logits(feats))[:, 1]
        if self._class_models:
            for target, classifier in self._class_models.items():
                mask = y == target
                if mask.any():
                    scores[mask] = softmax(
                        classifier.predict_logits(feats[mask]))[:, 1]
        return scores
