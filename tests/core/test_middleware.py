"""DINAR middleware facade tests."""

import numpy as np
import pytest

from repro.core.middleware import DINARMiddleware
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.privacy.attacks.metrics import local_models_auc
from repro.privacy.attacks.threshold import LossThresholdAttack


@pytest.fixture
def split(rng):
    data = synthetic_tabular(rng, 600, 20, 4, noise=0.35)
    return split_for_membership(data, rng)


CONFIG = FLConfig(num_clients=3, rounds=3, local_epochs=3, lr=0.15,
                  batch_size=32, seed=0)


def test_deploy_runs_initialization(split, tiny_model_factory):
    middleware = DINARMiddleware(tiny_model_factory, CONFIG,
                                 dinar_kwargs={"lr": 0.05})
    simulation = middleware.deploy(split)
    assert middleware.initialization is not None
    assert 0 <= middleware.initialization.private_layer < 3
    assert middleware.defense.private_layer \
        == middleware.initialization.private_layer
    assert simulation.defense is middleware.defense


def test_deployed_simulation_protects(split, tiny_model_factory):
    middleware = DINARMiddleware(tiny_model_factory, CONFIG,
                                 dinar_kwargs={"lr": 0.05})
    simulation = middleware.deploy(split)
    simulation.run()
    auc = local_models_auc(LossThresholdAttack(), simulation,
                           max_samples=150)
    assert auc < 0.6


def test_byzantine_clients_tolerated(split, tiny_model_factory):
    middleware = DINARMiddleware(
        tiny_model_factory, CONFIG, byzantine={2: "random"},
        dinar_kwargs={"lr": 0.05})
    middleware.deploy(split)
    assert 0 <= middleware.initialization.private_layer < 3


def test_describe_before_and_after(split, tiny_model_factory):
    middleware = DINARMiddleware(tiny_model_factory, CONFIG)
    assert "not deployed" in middleware.describe()
    middleware.deploy(split)
    text = middleware.describe()
    assert "private layer" in text
    assert "broadcast rounds" in text


def test_initialization_analyses_the_training_shards(
        split, tiny_model_factory, monkeypatch):
    """Each client's §4.1 analysis runs on exactly the rows it then
    trains on."""
    import repro.core.middleware as middleware_module

    seen = []
    initialize = middleware_module.dinar_initialization

    def spy(model_factory, client_datasets, **kwargs):
        seen.extend(client_datasets)
        return initialize(model_factory, client_datasets, **kwargs)

    monkeypatch.setattr(middleware_module, "dinar_initialization", spy)
    middleware = DINARMiddleware(tiny_model_factory, CONFIG,
                                 warmup_epochs=1)
    simulation = middleware.deploy(split, dirichlet_alpha=1.0)
    assert len(seen) == CONFIG.num_clients
    for cid, analysed in enumerate(seen):
        trained = simulation.client_dataset(cid)
        assert np.array_equal(analysed.x, trained.x)
        assert np.array_equal(analysed.y, trained.y)
