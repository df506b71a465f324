"""Leakage-trajectory tests."""

import numpy as np
import pytest

from repro.analysis.leakage_over_time import (
    LeakageTrajectory,
    leakage_over_training,
)
from repro.core.dinar import DINAR
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.privacy.attacks.threshold import LossThresholdAttack


@pytest.fixture
def make_sim(rng, tiny_model_factory):
    data = synthetic_tabular(rng, 600, 20, 4, noise=0.35)
    split = split_for_membership(data, np.random.default_rng(1))

    def build(defense=None, rounds=4):
        return FederatedSimulation(
            split, tiny_model_factory,
            FLConfig(num_clients=3, rounds=rounds, local_epochs=3,
                     lr=0.15, batch_size=32, seed=0,
                     eval_every=rounds), defense)
    return build


def test_trajectory_has_one_point_per_round(make_sim):
    trajectory = leakage_over_training(
        make_sim(), LossThresholdAttack(), max_samples=100)
    assert len(trajectory.points) == 4
    assert trajectory.final.round_index == 3


def test_unprotected_leakage_grows(make_sim):
    trajectory = leakage_over_training(
        make_sim(rounds=6), LossThresholdAttack(), max_samples=150)
    rounds, _, local = trajectory.series()
    # training memorizes: late-round leakage exceeds round-0 leakage
    assert local[-1] > local[0]
    assert trajectory.peak_local_auc > 0.6


def test_dinar_flat_at_optimum(make_sim):
    trajectory = leakage_over_training(
        make_sim(DINAR(private_layer=-2, lr=0.05)),
        LossThresholdAttack(), max_samples=150)
    for point in trajectory.points:
        assert point.local_auc < 0.6  # pinned from the first round


def test_rejects_used_simulation(make_sim):
    sim = make_sim()
    sim.run()
    with pytest.raises(ValueError):
        leakage_over_training(sim, LossThresholdAttack())


def test_empty_trajectory_raises():
    with pytest.raises(RuntimeError):
        LeakageTrajectory().final
