"""Federated simulation orchestrator tests."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.partition import (
    partition_dirichlet,
    partition_iid,
    split_for_membership,
)
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.nn.layers import Dense
from repro.nn.model import Model


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
        total = sum(len(sim.client_dataset(cid))
                    for cid in range(sim.config.num_clients))
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

    def test_evaluation_views_load_the_fleet_model(self, small_split,
                                                   tiny_model_factory):
        built = []

        def factory(rng):
            built.append(1)
            return tiny_model_factory(rng)

        sim = _sim(small_split, factory)
        built.clear()
        sim.run()
        model = sim.global_model()
        assert model is sim.fleet.eval_model()
        assert np.array_equal(model.weights.buffer,
                              sim.server.global_weights.buffer)
        assert sim.transmitted_model(1) is model
        assert np.array_equal(model.weights.buffer,
                              sim.last_updates[1].buffer)
        assert built == []

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
                counts = [np.sum(sim.client_dataset(cid).y == cls)
                          for cid in range(sim.config.num_clients)]
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


class TestOneCopyOfTheData:
    """Shards index the loaded dataset; no member pool is copied."""

    @pytest.mark.parametrize("alpha", [math.inf, 0.5])
    def test_clients_get_the_member_pool_subsets(self, small_split,
                                                 tiny_model_factory, alpha):
        sim = FederatedSimulation(
            small_split, tiny_model_factory,
            FLConfig(num_clients=4, rounds=1, seed=3), None,
            dirichlet_alpha=alpha)
        # the simulation's first draw partitions the member positions
        rng = np.random.default_rng(3)
        members = small_split.members
        if math.isinf(alpha):
            local = partition_iid(len(members), 4, rng)
        else:
            local = partition_dirichlet(members.y, 4, alpha, rng,
                                        num_classes=members.num_classes)
        name = small_split.source.name
        for client_id, shard in enumerate(local):
            want = members.subset(shard)
            got = sim.client_dataset(client_id)
            assert got.name == f"{name}/members/client{client_id}"
            assert got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes()

    def test_split_and_init_do_not_copy_the_data(self):
        dataset = load_dataset("purchase100", 0, n_samples=6000)

        def factory(rng):
            return Model([Dense(dataset.x.shape[1], 8, rng),
                          Dense(8, dataset.num_classes, rng)])

        tracemalloc.start()
        try:
            split = split_for_membership(dataset, np.random.default_rng(1))
            FederatedSimulation(split, factory,
                                FLConfig(num_clients=10, rounds=1, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copying split alone allocates the whole feature matrix
        assert peak < 0.25 * dataset.x.nbytes
