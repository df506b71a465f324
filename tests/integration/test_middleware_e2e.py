"""End-to-end middleware deployment over the benchmark harness's real
dataset registry (small scale)."""

import numpy as np
import pytest

from repro.bench.harness import make_model_factory
from repro.core.middleware import DINARMiddleware
from repro.data import load_dataset, split_for_membership
from repro.fl.config import FLConfig
from repro.privacy.attacks.metrics import (
    global_model_auc,
    local_models_auc,
)
from repro.privacy.attacks.threshold import LossThresholdAttack


@pytest.mark.parametrize("dataset", ["purchase100", "cifar10"])
def test_middleware_on_registry_dataset(dataset):
    config = FLConfig(num_clients=3, rounds=3, local_epochs=2,
                      lr=0.1, batch_size=64, seed=0, eval_every=3)
    split = split_for_membership(
        load_dataset(dataset, 0, n_samples=900),
        np.random.default_rng(1))
    middleware = DINARMiddleware(
        make_model_factory(dataset), config, warmup_epochs=2,
        dinar_kwargs={"lr": 0.01})
    simulation = middleware.deploy(split)
    simulation.run()

    attack = LossThresholdAttack()
    assert local_models_auc(attack, simulation, max_samples=150) < 0.62
    assert global_model_auc(attack, simulation, max_samples=150) < 0.62
    assert "private layer" in middleware.describe()


def test_middleware_noniid_deployment():
    config = FLConfig(num_clients=3, rounds=2, local_epochs=2,
                      lr=0.1, batch_size=64, seed=0, eval_every=2)
    split = split_for_membership(
        load_dataset("purchase100", 0, n_samples=900),
        np.random.default_rng(1))
    middleware = DINARMiddleware(
        make_model_factory("purchase100"), config, warmup_epochs=2)
    simulation = middleware.deploy(split, dirichlet_alpha=1.0)
    simulation.run()
    sizes = [len(simulation.client_dataset(cid))
             for cid in range(config.num_clients)]
    assert sum(sizes) == len(split.members)
