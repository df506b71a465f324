"""Per-class shadow attack tests (Shokri et al.'s original variant)."""

import numpy as np
import pytest

from repro.data.synthetic import synthetic_tabular
from repro.privacy.attacks.metrics import attack_auc
from repro.privacy.attacks.shadow import ShadowAttack


@pytest.fixture(scope="module")
def setup(tiny_model_factory=None):
    from repro.nn.activations import Tanh
    from repro.nn.layers import Dense
    from repro.nn.model import Model

    def factory(rng):
        return Model([Dense(20, 16, rng), Tanh(), Dense(16, 4, rng)])

    rng = np.random.default_rng(0)
    data = synthetic_tabular(rng, 600, 20, 4, noise=0.35)
    victim_members = data.subset(np.arange(100))
    victim_nonmembers = data.subset(np.arange(100, 200))
    attacker = (data, np.arange(200, 600))

    # train the victim to memorization
    from repro.data.loader import iterate_batches
    from repro.nn.losses import SoftmaxCrossEntropy
    from repro.nn.optim import SGD
    victim = factory(np.random.default_rng(1))
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(victim, 0.2)
    for _ in range(80):
        for bx, by in iterate_batches(victim_members.x,
                                      victim_members.y, 32, rng):
            victim.loss_and_grad(bx, by, loss)
            optimizer.step()
    return factory, victim, victim_members, victim_nonmembers, attacker


def test_per_class_attack_fits_class_models(setup):
    factory, victim, members, nonmembers, attacker = setup
    attack = ShadowAttack(factory, num_shadows=2, epochs=20, lr=0.2,
                          batch_size=32, per_class=True)
    attack.fit(*attacker)
    assert attack._class_models  # at least some classes got a model


def test_per_class_attack_detects_membership(setup):
    factory, victim, members, nonmembers, attacker = setup
    attack = ShadowAttack(factory, num_shadows=2, epochs=20, lr=0.2,
                          batch_size=32, per_class=True)
    attack.fit(*attacker)
    auc = attack_auc(
        attack.score(victim, members.x, members.y),
        attack.score(victim, nonmembers.x, nonmembers.y))
    assert auc > 0.6


def test_pooled_fallback_for_unseen_class(setup):
    """Scoring a class with no dedicated model uses the pooled one."""
    factory, victim, members, *_ = setup
    attack = ShadowAttack(factory, num_shadows=1, epochs=5, lr=0.2,
                          batch_size=32, per_class=True)
    # fit on a single-class slice so most classes lack a model
    rng = np.random.default_rng(3)
    data = synthetic_tabular(rng, 200, 20, 4, noise=0.35)
    attack.fit(data, np.arange(len(data)))
    scores = attack.score(victim, members.x, members.y)
    assert np.all((0 <= scores) & (scores <= 1))
