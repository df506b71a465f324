"""Reference-calibrated attack tests."""

import numpy as np
import pytest

from repro.data.loader import iterate_batches
from repro.data.synthetic import synthetic_tabular
from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import SGD
from repro.privacy.attacks.calibrated import ReferenceCalibratedAttack
from repro.privacy.attacks.metrics import attack_auc
from repro.privacy.attacks.threshold import LossThresholdAttack


def _factory(rng):
    return Model([Dense(20, 16, rng), Tanh(), Dense(16, 4, rng)])


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    data = synthetic_tabular(rng, 500, 20, 4, noise=0.35)
    members = data.subset(np.arange(100))
    nonmembers = data.subset(np.arange(100, 200))
    attacker = (data, np.arange(200, 500))
    victim = _factory(np.random.default_rng(1))
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(victim, 0.2)
    for _ in range(80):
        for bx, by in iterate_batches(members.x, members.y, 32, rng):
            victim.loss_and_grad(bx, by, loss)
            optimizer.step()
    return victim, members, nonmembers, attacker


def test_detects_membership(setup):
    victim, members, nonmembers, attacker = setup
    attack = ReferenceCalibratedAttack(
        _factory, num_references=2, epochs=20, lr=0.2, batch_size=32)
    attack.fit(*attacker)
    auc = attack_auc(
        attack.score(victim, members.x, members.y),
        attack.score(victim, nonmembers.x, nonmembers.y))
    assert auc > 0.65


def test_at_least_as_strong_as_uncalibrated(setup):
    victim, members, nonmembers, attacker = setup
    calibrated = ReferenceCalibratedAttack(
        _factory, num_references=3, epochs=20, lr=0.2,
        batch_size=32).fit(*attacker)
    plain = LossThresholdAttack()

    def auc(attack):
        return attack_auc(
            attack.score(victim, members.x, members.y),
            attack.score(victim, nonmembers.x, nonmembers.y))

    assert auc(calibrated) >= auc(plain) - 0.03


def test_score_before_fit_raises(setup):
    victim, members, *_ = setup
    attack = ReferenceCalibratedAttack(_factory)
    with pytest.raises(RuntimeError):
        attack.score(victim, members.x, members.y)


def test_rejects_bad_params():
    with pytest.raises(ValueError):
        ReferenceCalibratedAttack(_factory, num_references=0)
    with pytest.raises(ValueError):
        ReferenceCalibratedAttack(_factory, subsample=0.0)


def test_calibration_fixes_hard_samples(setup):
    """A sample that every model finds hard gets a low *calibrated*
    score even though its raw loss is high."""
    victim, members, nonmembers, attacker = setup
    attack = ReferenceCalibratedAttack(
        _factory, num_references=3, epochs=20, lr=0.2,
        batch_size=32).fit(*attacker)
    raw = LossThresholdAttack().score(
        victim, nonmembers.x, nonmembers.y)
    calibrated = attack.score(victim, nonmembers.x, nonmembers.y)
    # hardest non-member by raw loss:
    hardest = np.argmin(raw)
    # its calibrated score should not be extreme (references also
    # struggle with it) — check it moved toward the middle of the pack
    raw_rank = (raw < raw[hardest]).mean()
    calibrated_rank = (calibrated < calibrated[hardest]).mean()
    assert calibrated_rank >= raw_rank
