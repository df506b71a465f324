"""FedProx proximal-term tests (extension)."""

import numpy as np
import pytest

from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from tests.conftest import one_client_simulation, train_client_round


def _simulation(tiny_model_factory, mu, seed=0, epochs=3):
    data = synthetic_tabular(np.random.default_rng(seed), 80, 20, 4,
                             noise=0.3)
    config = FLConfig(num_clients=1, rounds=1, local_epochs=epochs,
                      lr=0.2, batch_size=16, proximal_mu=mu)
    return one_client_simulation(tiny_model_factory, config, data)


def test_rejects_negative_mu():
    with pytest.raises(ValueError):
        FLConfig(proximal_mu=-0.1)


def test_proximal_term_limits_drift(tiny_model_factory):
    """Larger mu keeps the local model closer to the round anchor."""
    def drift(mu):
        sim = _simulation(tiny_model_factory, mu)
        start = sim.server.global_weights.buffer.copy()
        result = train_client_round(sim)
        return float(np.linalg.norm(result.update_buffer - start))

    assert drift(5.0) < drift(0.0)


def test_zero_mu_matches_plain_training(tiny_model_factory):
    """mu=0 must take exactly the plain FedAvg code path."""
    ua = train_client_round(_simulation(tiny_model_factory, 0.0))
    ub = train_client_round(_simulation(tiny_model_factory, 0.0))
    assert np.allclose(ua.update_buffer, ub.update_buffer)


def test_prox_still_learns(tiny_model_factory):
    sim = _simulation(tiny_model_factory, 0.1, epochs=40)
    train_client_round(sim)
    data = sim.client_dataset(0)
    assert sim.fleet.evaluate_weights(
        sim.registry[0], data.x, data.y) > 0.7
