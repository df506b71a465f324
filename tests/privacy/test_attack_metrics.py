"""Attack AUC metric tests (Appendix A)."""

import multiprocessing

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.shm import shm_available
from repro.fl.simulation import FederatedSimulation
from repro.privacy.attacks.metrics import (
    attack_auc,
    global_model_auc,
    local_models_auc,
    roc_auc,
)
from repro.privacy.attacks.threshold import LossThresholdAttack


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 1.0

    def test_perfectly_inverted(self):
        assert roc_auc(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 0.0

    def test_random_overlap_near_half(self, rng):
        pos = rng.standard_normal(2000)
        neg = rng.standard_normal(2000)
        assert abs(roc_auc(pos, neg) - 0.5) < 0.03

    def test_ties_count_half(self):
        assert roc_auc(np.array([1.0]), np.array([1.0])) == 0.5

    def test_matches_pairwise_definition(self, rng):
        pos = rng.standard_normal(30)
        neg = rng.standard_normal(40)
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert np.isclose(roc_auc(pos, neg), wins / (30 * 40))

    def test_known_shift(self, rng):
        pos = rng.standard_normal(3000) + 1.0
        neg = rng.standard_normal(3000)
        # AUC of unit shift between unit gaussians = Phi(1/sqrt(2))
        from scipy.stats import norm
        assert abs(roc_auc(pos, neg) - norm.cdf(1 / np.sqrt(2))) < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([]), np.array([1.0]))


class TestAttackAuc:
    def test_clamped_to_half(self, rng):
        """An anti-predictive attacker is as good as its inverse."""
        pos = np.array([1.0, 2.0])
        neg = np.array([3.0, 4.0])
        assert attack_auc(pos, neg) == 1.0

    def test_never_below_half(self, rng):
        for _ in range(5):
            pos = rng.standard_normal(50)
            neg = rng.standard_normal(50)
            assert attack_auc(pos, neg) >= 0.5

    def test_preserves_strong_signal(self, rng):
        pos = rng.standard_normal(500) + 3
        neg = rng.standard_normal(500)
        assert attack_auc(pos, neg) > 0.95


def _oracle_indices(rng, n, max_samples):
    if n <= max_samples:
        return np.arange(n)
    return rng.choice(n, size=max_samples, replace=False)


def _fresh_model(factory, weights):
    model = factory(np.random.default_rng(0))
    model.set_store(weights)
    return model


def _oracle_aucs(attack, sim, factory, max_samples):
    """Both AUCs scored on fresh models built from ``factory``, so the
    oracle shares no evaluation path with the metrics it checks."""
    rng = np.random.default_rng(3)
    split = sim.split
    nonmembers = split.nonmembers
    model = _fresh_model(factory, sim.server.global_weights)
    rows = split.member_idx[
        _oracle_indices(rng, len(split.member_idx), max_samples)]
    n_idx = _oracle_indices(rng, len(nonmembers), max_samples)
    global_auc = attack_auc(
        attack.score(model, split.source.x[rows], split.source.y[rows]),
        attack.score(model, nonmembers.x[n_idx], nonmembers.y[n_idx]))
    rng = np.random.default_rng(4)
    aucs = []
    for client_id in sorted(sim.last_updates):
        model = _fresh_model(factory, sim.last_updates[client_id])
        data = sim.client_dataset(client_id)
        m_idx = _oracle_indices(rng, len(data), max_samples)
        n_idx = _oracle_indices(rng, len(nonmembers), max_samples)
        aucs.append(attack_auc(
            attack.score(model, data.x[m_idx], data.y[m_idx]),
            attack.score(model, nonmembers.x[n_idx], nonmembers.y[n_idx])))
    return global_auc, float(np.mean(aucs))


class TestSimulationAucs:
    @pytest.mark.parametrize("workers", [
        0,
        pytest.param(2, marks=pytest.mark.skipif(
            not shm_available() or "fork"
            not in multiprocessing.get_all_start_methods(),
            reason="parallel executor requires fork and /dev/shm")),
    ])
    def test_scored_on_the_fleet_eval_model(self, rng, tiny_model_factory,
                                            workers):
        """Neither AUC builds a model, and both equal fresh-model
        scoring with the same rng streams."""
        split = split_for_membership(
            synthetic_tabular(rng, 400, 20, 4, noise=0.2), rng)
        built = []

        def factory(model_rng):
            built.append(1)
            return tiny_model_factory(model_rng)

        sim = FederatedSimulation(
            split, factory,
            FLConfig(num_clients=3, rounds=2, local_epochs=1, lr=0.1,
                     batch_size=16, seed=0, workers=workers))
        sim.run()
        attack = LossThresholdAttack()
        built.clear()
        global_auc = global_model_auc(attack, sim, max_samples=40,
                                      rng=np.random.default_rng(3))
        local_auc = local_models_auc(attack, sim, max_samples=40,
                                     rng=np.random.default_rng(4))
        assert built == []
        assert (global_auc, local_auc) == _oracle_aucs(
            attack, sim, tiny_model_factory, 40)
