"""Bit pins for the model-training attacks.

``ShadowAttack`` and ``ReferenceCalibratedAttack`` train their shadow
and reference models on the attacker's pool of a loaded dataset.  These
digests pin the scores each assigns a fixed target on a small gtsrb
split, so a change to how the pool's rows reach training (index rows
instead of a pool copy, a gather per batch) must keep every draw and
every bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.harness import make_model_factory
from repro.data.datasets import load_dataset
from repro.data.partition import split_for_membership
from repro.privacy.attacks.calibrated import ReferenceCalibratedAttack
from repro.privacy.attacks.shadow import ShadowAttack

#: sha256 of each attack's float64 scores on the split's non-members.
PINS = {
    "shadow":
        "37d3e7d067285ca013513d09405c8d5787083291cc2e892c8af7eee886692224",
    "calibrated":
        "f17ca8da1e9ddfd0aa74ab0fb58c0edf45c1ff4304a4d1dd58087606d741f650",
}


def _attack(kind: str, factory):
    if kind == "shadow":
        return ShadowAttack(factory, num_shadows=2, epochs=2,
                            attack_epochs=3, seed=4)
    return ReferenceCalibratedAttack(factory, num_references=2, epochs=2,
                                     seed=4)


@pytest.fixture(scope="module")
def gtsrb_split():
    data = load_dataset("gtsrb", 0, n_samples=480)
    return split_for_membership(data, np.random.default_rng(0))


@pytest.mark.parametrize("kind", sorted(PINS))
def test_scores_pinned(kind, gtsrb_split):
    factory = make_model_factory("gtsrb")
    target = factory(np.random.default_rng(5))
    attack = _attack(kind, factory).fit(gtsrb_split.source,
                                        gtsrb_split.attacker_idx)
    candidates = gtsrb_split.nonmembers
    scores = attack.score(target, candidates.x, candidates.y)
    assert hashlib.sha256(scores.tobytes()).hexdigest() == PINS[kind]
