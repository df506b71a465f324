"""Federated simulation orchestrator tests."""

import math

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.privacy.defenses.base import Defense


@pytest.fixture
def small_split(rng):
    ds = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
    return split_for_membership(ds, rng)


def _sim(small_split, tiny_model_factory, defense=None, **cfg_kwargs):
    defaults = dict(num_clients=3, rounds=2, local_epochs=2, lr=0.1,
                    batch_size=16, seed=0)
    defaults.update(cfg_kwargs)
    return FederatedSimulation(small_split, tiny_model_factory,
                               FLConfig(**defaults), defense)


class TestSimulation:
    def test_run_produces_history(self, small_split, tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory)
        history = sim.run()
        assert len(history.records) >= 1
        assert history.records[-1].round_index == 1

    def test_client_data_disjoint(self, small_split, tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory)
        total = sum(len(d) for d in sim.client_data)
        assert total == len(small_split.members)

    def test_accuracy_improves_over_rounds(self, small_split,
                                           tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory, rounds=8,
                   eval_every=1)
        history = sim.run()
        assert history.records[-1].global_accuracy \
            > history.records[0].global_accuracy

    def test_eval_every_skips_rounds(self, small_split,
                                     tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory, rounds=4,
                   eval_every=2)
        history = sim.run()
        indices = [r.round_index for r in history.records]
        assert indices == [1, 3]

    def test_last_round_always_evaluated(self, small_split,
                                         tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory, rounds=3,
                   eval_every=10)
        history = sim.run()
        assert history.records[-1].round_index == 2

    def test_last_updates_recorded(self, small_split, tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory)
        sim.run()
        assert set(sim.last_updates) == {0, 1, 2}

    def test_transmitted_model_loads_update(self, small_split,
                                            tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory)
        sim.run()
        model = sim.transmitted_model(1)
        assert model.get_store().allclose(sim.last_updates[1])

    def test_transmitted_model_requires_participation(self, small_split,
                                                      tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory)
        with pytest.raises(KeyError):
            sim.transmitted_model(0)

    def test_global_model_matches_server(self, small_split,
                                         tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory)
        sim.run()
        assert sim.global_model().get_store().allclose(
            sim.server.global_weights)

    def test_deterministic_given_seed(self, small_split,
                                      tiny_model_factory):
        a = _sim(small_split, tiny_model_factory, seed=5)
        b = _sim(small_split, tiny_model_factory, seed=5)
        a.run()
        b.run()
        assert a.server.global_weights.allclose(b.server.global_weights)

    def test_dirichlet_partition_applied(self, small_split,
                                         tiny_model_factory):
        sim_iid = _sim(small_split, tiny_model_factory)
        sim_skew = FederatedSimulation(
            small_split, tiny_model_factory,
            FLConfig(num_clients=3, rounds=1, local_epochs=1, lr=0.1,
                     batch_size=16, seed=0),
            None, dirichlet_alpha=0.3)
        def skew(sim):
            stds = []
            for cls in range(small_split.members.num_classes):
                counts = [np.sum(d.y == cls) for d in sim.client_data]
                stds.append(np.std(counts))
            return np.mean(stds)
        assert skew(sim_skew) > skew(sim_iid)

    def test_partial_participation(self, small_split, tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory, num_clients=3,
                   clients_per_round=2, rounds=3)
        sim.run()
        for record in sim.history.records:
            assert len(record.participating) == 2

    def test_history_raises_before_run(self, small_split,
                                       tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory)
        with pytest.raises(RuntimeError):
            _ = sim.history.final_global_accuracy

    def test_costs_accumulated(self, small_split, tiny_model_factory):
        sim = _sim(small_split, tiny_model_factory)
        sim.run()
        report = sim.cost_meter.report
        assert report.client_train_rounds == 6  # 3 clients x 2 rounds
        assert report.server_rounds == 2
        assert report.train_seconds_per_round > 0
