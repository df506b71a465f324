"""Client and server behaviour tests."""

import time

import numpy as np
import pytest

from repro.data.synthetic import synthetic_tabular
from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.server import FLServer
from repro.privacy.defenses.base import Defense
from tests.conftest import one_client_simulation, train_client_round


def _simulation(tiny_model_factory, defense=None, config=None,
                n_samples=60):
    data = synthetic_tabular(np.random.default_rng(0), n_samples, 20, 4,
                             noise=0.2)
    config = config or FLConfig(num_clients=1, rounds=1, local_epochs=2,
                                lr=0.1, batch_size=16)
    return one_client_simulation(tiny_model_factory, config, data,
                                 defense)


class TestFLClient:
    def test_training_changes_weights(self, tiny_model_factory):
        sim = _simulation(tiny_model_factory)
        start = sim.server.global_weights.buffer.copy()
        result = train_client_round(sim)
        assert not np.allclose(start, result.update_buffer)
        assert not np.allclose(start, sim.registry[0].buffer)

    def test_update_metadata(self, tiny_model_factory):
        sim = _simulation(tiny_model_factory)
        result = train_client_round(sim)
        assert result.client_id == 0
        assert result.num_samples == 60
        assert result.train_seconds > 0

    def test_evaluate_returns_accuracy(self, tiny_model_factory,
                                       tiny_dataset):
        sim = _simulation(tiny_model_factory)
        train_client_round(sim)
        score = sim.fleet.evaluate_weights(
            sim.registry[0], tiny_dataset.x, tiny_dataset.y)
        assert 0.0 <= score <= 1.0

    def test_defense_hooks_invoked(self, tiny_model_factory):
        calls = []

        class Spy(Defense):
            def on_receive_global(self, client_id, weights, state=None):
                calls.append("receive")
                return weights

            def on_send_update(self, client_id, weights, global_weights,
                               num_samples, rng_, state=None):
                calls.append("send")
                return weights

        train_client_round(_simulation(tiny_model_factory, defense=Spy()))
        assert calls == ["receive", "send"]

    def test_train_seconds_is_per_round_not_cumulative(
            self, tiny_model_factory):
        """Each round reports its own training time, not a running
        total across the trainer's rounds."""
        config = FLConfig(num_clients=1, rounds=2, local_epochs=2,
                          lr=0.1, batch_size=16)
        sim = _simulation(tiny_model_factory, config=config)
        first = train_client_round(sim, 0)
        start = time.perf_counter()
        second = train_client_round(sim, 1)
        wall = time.perf_counter() - start
        assert first.train_seconds > 0
        assert 0 < second.train_seconds <= wall

    def test_training_learns(self, tiny_model_factory):
        config = FLConfig(num_clients=1, rounds=1, local_epochs=20,
                          lr=0.1, batch_size=16)
        sim = _simulation(tiny_model_factory, config=config, n_samples=80)
        train_client_round(sim)
        data = sim.client_dataset(0)
        assert sim.fleet.evaluate_weights(
            sim.registry[0], data.x, data.y) > 0.8


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
        server = self._make(rng, tiny_model_factory)
        ones = server.global_weights.zeros_like()
        ones.buffer[:] = 1.0
        update = ClientUpdate(0, ones, 10)
        out = server.aggregate([update], total_samples=10.0)
        assert np.allclose(out.view(0, "W"), 1.0)
        assert server.global_weights is out

    def test_aggregate_rejects_empty(self, rng, tiny_model_factory):
        server = self._make(rng, tiny_model_factory)
        with pytest.raises(ValueError, match="no updates"):
            server.aggregate([], total_samples=1.0)

    def test_aggregate_requires_total_samples(self, rng,
                                              tiny_model_factory):
        """FedAvg without the completion set's total refuses before
        advancing the stream, so no client trains for nothing."""
        server = self._make(rng, tiny_model_factory)
        advanced = []

        def arrivals():
            advanced.append(True)
            yield from ()

        with pytest.raises(ValueError, match="total_samples"):
            server.aggregate(arrivals())
        assert not advanced

    def test_cost_meter_records_aggregation(self, rng, tiny_model_factory):
        server = self._make(rng, tiny_model_factory)
        ones = server.global_weights.zeros_like()
        ones.buffer[:] = 1.0
        server.aggregate([ClientUpdate(0, ones, 1)], total_samples=1.0)
        assert server.cost_meter.report.server_rounds == 1
        assert server.cost_meter.report.server_aggregate_seconds > 0
