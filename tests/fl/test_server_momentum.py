"""FedAvgM server-momentum tests (extension)."""

import numpy as np
import pytest

from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.server import FLServer
from repro.privacy.defenses.base import Defense
from tests.conftest import store_of


def _weights(value):
    return store_of([{"W": np.full((2, 2), float(value))}])


def _server(momentum, start=0.0):
    config = FLConfig(num_clients=1, rounds=1,
                      server_momentum=momentum)
    return FLServer(_weights(start), config, Defense(),
                    np.random.default_rng(0))


def test_rejects_bad_momentum():
    with pytest.raises(ValueError):
        FLConfig(server_momentum=1.0)
    with pytest.raises(ValueError):
        FLConfig(server_momentum=-0.1)


def test_zero_momentum_is_plain_fedavg():
    server = _server(0.0)
    out = server.aggregate([ClientUpdate(0, _weights(4), 10)],
                           total_samples=10.0)
    assert np.allclose(out.view(0, "W"), 4.0)


def test_first_round_matches_fedavg():
    """With an empty buffer the first momentum step equals the delta."""
    server = _server(0.9)
    out = server.aggregate([ClientUpdate(0, _weights(4), 10)],
                           total_samples=10.0)
    assert np.allclose(out.view(0, "W"), 4.0)


def test_momentum_accumulates_across_rounds():
    """Constant per-round deltas are amplified by the running buffer."""
    server = _server(0.5)
    server.aggregate([ClientUpdate(0, _weights(1), 10)],
                     total_samples=10.0)
    # round 2: clients move 1 further; buffer adds half the old delta
    out = server.aggregate([ClientUpdate(0, _weights(2), 10)],
                           total_samples=10.0)
    assert out.view(0, "W")[0, 0] > 2.0


def test_momentum_converges_on_fixed_point():
    """If clients return exactly the global model, the buffer decays."""
    server = _server(0.5, start=3.0)
    for _ in range(20):
        out = server.aggregate(
            [ClientUpdate(0, _weights(3.0), 10)], total_samples=10.0)
    assert np.allclose(out.view(0, "W"), 3.0, atol=1e-3)
