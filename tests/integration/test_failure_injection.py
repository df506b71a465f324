"""Failure injection: Byzantine voters, garbage updates, client
dropouts, and exhausted privacy budgets."""

import numpy as np
import pytest

from repro.core.consensus import agree_on_private_layer
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.aggregation import coordinate_median, fedavg, trimmed_mean
from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn


def _factory(rng):
    return build_fcnn(30, 4, rng, hidden=(24, 16))


@pytest.fixture
def split(rng):
    data = synthetic_tabular(rng, 600, 30, 4, noise=0.3, name="fail")
    return split_for_membership(data, rng)


class TestByzantineConsensus:
    def test_minority_byzantine_never_wins(self):
        """Sweep seeds: 2 Byzantine voters out of 7 can never flip an
        honest 5-vote majority."""
        for seed in range(10):
            proposals = {i: 4 for i in range(5)}
            proposals.update({5: 0, 6: 1})
            result = agree_on_private_layer(
                proposals, byzantine={5: "equivocate", 6: "random"},
                num_layers=8, seed=seed)
            assert result.decided_value == 4

    def test_all_silent_byzantine_keeps_honest_value(self):
        proposals = {0: 3, 1: 3, 2: 0, 3: 0}
        result = agree_on_private_layer(
            proposals, byzantine={2: "silent", 3: "silent"},
            num_layers=4)
        assert result.decided_value == 3


class TestGarbageUpdates:
    def _updates(self, sim, garbage_clients=()):
        updates = []
        rng = np.random.default_rng(0)
        template = sim.server.global_weights
        for cid in range(sim.config.num_clients):
            if cid in garbage_clients:
                weights = template.zeros_like()
                weights.buffer[:] = 1e6
            else:
                weights = template.copy()
            updates.append(ClientUpdate(cid, weights, 10, 0.0))
        return updates

    def test_fedavg_is_poisoned_by_garbage(self, split):
        sim = FederatedSimulation(split, _factory,
                                  FLConfig(num_clients=4, rounds=1))
        updates = self._updates(sim, garbage_clients=(3,))
        out = fedavg([u.weights for u in updates],
                     [u.num_samples for u in updates])
        assert np.abs(out.view(0, "W")).max() > 1e4  # poisoned

    def test_median_survives_garbage(self, split):
        sim = FederatedSimulation(split, _factory,
                                  FLConfig(num_clients=4, rounds=1))
        updates = self._updates(sim, garbage_clients=(3,))
        out = coordinate_median([u.weights for u in updates])
        assert np.abs(out.view(0, "W")).max() < 10

    def test_trimmed_mean_survives_garbage(self, split):
        sim = FederatedSimulation(split, _factory,
                                  FLConfig(num_clients=5, rounds=1))
        updates = self._updates(sim, garbage_clients=(4,))
        out = trimmed_mean([u.weights for u in updates], trim=1)
        assert np.abs(out.view(0, "W")).max() < 10


class TestClientDropout:
    def test_partial_cohorts_still_converge(self, split):
        config = FLConfig(num_clients=5, rounds=8, local_epochs=2,
                          lr=0.15, batch_size=32, clients_per_round=3,
                          eval_every=8, seed=0)
        sim = FederatedSimulation(split, _factory, config)
        history = sim.run()
        assert history.final_global_accuracy > 0.5

    def test_nonparticipants_have_no_recorded_update(self, split):
        config = FLConfig(num_clients=5, rounds=1, local_epochs=1,
                          clients_per_round=2, seed=0)
        sim = FederatedSimulation(split, _factory, config)
        sim.run()
        assert len(sim.last_updates) == 2


class TestMalformedWeights:
    def test_set_weights_rejects_wrong_layer_count(self, rng):
        model = _factory(rng)
        shallower = build_fcnn(30, 4, rng, hidden=(24,))
        with pytest.raises(ValueError, match="layout"):
            model.set_store(shallower.get_store())

    def test_set_weights_rejects_wrong_shapes(self, rng):
        model = _factory(rng)
        narrower = build_fcnn(30, 4, rng, hidden=(24, 8))
        with pytest.raises(ValueError, match="layout"):
            model.set_store(narrower.get_store())

    def test_obfuscated_weights_still_load(self, rng):
        """Random garbage of the right shape must load fine — DINAR's
        whole mechanism depends on that."""
        model = _factory(rng)
        garbage = model.get_store()
        garbage.buffer[:] = 100.0 * rng.standard_normal(
            garbage.num_params)
        model.set_store(garbage)
        out = model.predict_logits(rng.standard_normal((2, 30)))
        assert out.shape == (2, 4)


class TestBudgetExhaustion:
    def test_accountant_flags_overdraft(self):
        from repro.privacy.defenses.accounting import PrivacyAccountant
        accountant = PrivacyAccountant(1.0, 1e-5)
        for _ in range(11):
            accountant.spend(0.1, 0.0)
        assert accountant.exhausted
