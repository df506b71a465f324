"""Client and server behaviour tests."""

import numpy as np
import pytest

from repro.data.synthetic import synthetic_tabular
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.server import FLServer
from repro.privacy.defenses.base import Defense


def _client(rng, tiny_model_factory, defense=None, config=None,
            n_samples=60):
    data = synthetic_tabular(rng, n_samples, 20, 4, noise=0.2)
    config = config or FLConfig(num_clients=2, rounds=1, local_epochs=2,
                                lr=0.1, batch_size=16)
    return FLClient(0, tiny_model_factory(np.random.default_rng(1)), data,
                    config, defense or Defense(),
                    np.random.default_rng(2))


class TestFLClient:
    def test_training_changes_weights(self, rng, tiny_model_factory):
        client = _client(rng, tiny_model_factory)
        start = client.model.get_store()
        update = client.train_round(start, 0)
        assert not start.allclose(update.weights)

    def test_update_metadata(self, rng, tiny_model_factory):
        client = _client(rng, tiny_model_factory)
        update = client.train_round(client.model.get_store(), 0)
        assert update.client_id == 0
        assert update.num_samples == 60
        assert update.train_seconds > 0

    def test_evaluate_returns_accuracy(self, rng, tiny_model_factory,
                                       tiny_dataset):
        client = _client(rng, tiny_model_factory)
        client.train_round(client.model.get_store(), 0)
        score = client.evaluate(tiny_dataset.x, tiny_dataset.y)
        assert 0.0 <= score <= 1.0

    def test_rejects_empty_data(self, rng, tiny_model_factory):
        empty = synthetic_tabular(rng, 10, 20, 4).subset(np.array([],
                                                                  dtype=int))
        with pytest.raises(ValueError):
            FLClient(0, tiny_model_factory(rng), empty, FLConfig(),
                     Defense(), rng)

    def test_defense_hooks_invoked(self, rng, tiny_model_factory):
        calls = []

        class Spy(Defense):
            def on_receive_global(self, client_id, weights):
                calls.append("receive")
                return weights

            def on_send_update(self, client_id, weights, num_samples,
                               rng_):
                calls.append("send")
                return weights

        client = _client(rng, tiny_model_factory, defense=Spy())
        client.train_round(client.model.get_store(), 0)
        assert calls == ["receive", "send"]

    def test_train_seconds_is_per_round_not_cumulative(
            self, rng, tiny_model_factory):
        """Regression: with the shared cost meter, each round's update
        must report that round's own wall time, not the meter's
        cumulative training total."""
        from repro.fl.costs import CostMeter
        meter = CostMeter()
        data = synthetic_tabular(rng, 60, 20, 4, noise=0.2)
        config = FLConfig(num_clients=1, rounds=2, local_epochs=2,
                          lr=0.1, batch_size=16)
        client = FLClient(0, tiny_model_factory(np.random.default_rng(1)),
                          data, config, Defense(),
                          np.random.default_rng(2), cost_meter=meter)
        first = client.train_round(client.model.get_store(), 0)
        second = client.train_round(client.model.get_store(), 1)
        total = meter.report.client_train_seconds
        assert first.train_seconds > 0
        assert second.train_seconds > 0
        assert second.train_seconds < total
        assert first.train_seconds + second.train_seconds == \
            pytest.approx(total, rel=1e-6)

    def test_training_learns(self, rng, tiny_model_factory):
        config = FLConfig(num_clients=1, rounds=1, local_epochs=20,
                          lr=0.1, batch_size=16)
        client = _client(rng, tiny_model_factory, config=config,
                         n_samples=80)
        client.train_round(client.model.get_store(), 0)
        assert client.evaluate(client.data.x, client.data.y) > 0.8


class TestFLServer:
    def _make(self, rng, tiny_model_factory, defense=None, **cfg):
        config = FLConfig(num_clients=4, rounds=1, **cfg)
        model = tiny_model_factory(rng)
        return FLServer(model.get_store(), config, defense or Defense(),
                        rng)

    def test_selects_all_by_default(self, rng, tiny_model_factory):
        server = self._make(rng, tiny_model_factory)
        assert server.select_clients(0) == [0, 1, 2, 3]

    def test_partial_selection(self, rng, tiny_model_factory):
        server = self._make(rng, tiny_model_factory, clients_per_round=2)
        chosen = server.select_clients(0)
        assert len(chosen) == 2
        assert all(0 <= c < 4 for c in chosen)

    def test_aggregate_updates_global(self, rng, tiny_model_factory):
        from repro.fl.client import ClientUpdate
        server = self._make(rng, tiny_model_factory)
        ones = server.global_weights.zeros_like()
        ones.buffer[:] = 1.0
        update = ClientUpdate(0, ones, 10, 0.0)
        out = server.aggregate([update])
        assert np.allclose(out.view(0, "W"), 1.0)
        assert server.global_weights is out

    def test_aggregate_rejects_empty(self, rng, tiny_model_factory):
        server = self._make(rng, tiny_model_factory)
        with pytest.raises(ValueError):
            server.aggregate([])

    def test_cost_meter_records_aggregation(self, rng, tiny_model_factory):
        from repro.fl.client import ClientUpdate
        server = self._make(rng, tiny_model_factory)
        ones = server.global_weights.zeros_like()
        ones.buffer[:] = 1.0
        server.aggregate([ClientUpdate(0, ones, 1, 0.0)])
        assert server.cost_meter.report.server_rounds == 1
        assert server.cost_meter.report.server_aggregate_seconds > 0
