"""FedProx proximal-term tests (extension)."""

import numpy as np
import pytest

from repro.data.synthetic import synthetic_tabular
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.privacy.defenses.base import Defense


def _client(tiny_model_factory, mu, seed=0, epochs=3):
    rng = np.random.default_rng(seed)
    data = synthetic_tabular(rng, 80, 20, 4, noise=0.3)
    config = FLConfig(num_clients=1, rounds=1, local_epochs=epochs,
                      lr=0.2, batch_size=16, proximal_mu=mu)
    return FLClient(0, tiny_model_factory(np.random.default_rng(1)),
                    data, config, Defense(), np.random.default_rng(2))


def test_rejects_negative_mu():
    with pytest.raises(ValueError):
        FLConfig(proximal_mu=-0.1)


def test_proximal_term_limits_drift(tiny_model_factory):
    """Larger mu keeps the local model closer to the round anchor."""
    def drift(mu):
        client = _client(tiny_model_factory, mu)
        start = client.model.get_store()
        update = client.train_round(start, 0)
        return float(np.linalg.norm((update.weights - start).buffer))

    assert drift(5.0) < drift(0.0)


def test_zero_mu_matches_plain_training(tiny_model_factory):
    """mu=0 must take exactly the plain FedAvg code path."""
    a = _client(tiny_model_factory, 0.0)
    b = _client(tiny_model_factory, 0.0)
    start = a.model.get_store()
    ua = a.train_round(start, 0)
    ub = b.train_round(start, 0)
    assert np.allclose(ua.weights.buffer, ub.weights.buffer)


def test_prox_still_learns(tiny_model_factory):
    client = _client(tiny_model_factory, 0.1, epochs=40)
    client.train_round(client.model.get_store(), 0)
    assert client.evaluate(client.data.x, client.data.y) > 0.7
