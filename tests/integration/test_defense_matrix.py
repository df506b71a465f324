"""Integration: every defense runs end-to-end through the simulator and
produces the qualitative behaviour Table 1 / Fig. 6 report."""

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn
from repro.privacy.attacks.metrics import (
    global_model_auc,
    local_models_auc,
)
from repro.privacy.attacks.threshold import LossThresholdAttack
from repro.privacy.defenses.make import make_defense_for_config

CONFIG = FLConfig(num_clients=3, rounds=3, local_epochs=4, lr=0.15,
                  batch_size=32, seed=0)


def _factory(rng):
    return build_fcnn(40, 6, rng, hidden=(32, 24, 16))


@pytest.fixture(scope="module")
def split():
    rng = np.random.default_rng(1)
    data = synthetic_tabular(rng, 900, 40, 6, noise=0.35, name="matrix")
    return split_for_membership(data, rng)


def _run(split, name, **kwargs):
    defense = make_defense_for_config(name, CONFIG, **kwargs)
    sim = FederatedSimulation(split, _factory, CONFIG, defense)
    sim.run()
    attack = LossThresholdAttack()
    return (sim,
            global_model_auc(attack, sim, max_samples=150),
            local_models_auc(attack, sim, max_samples=150))


@pytest.mark.parametrize("name", ["none", "ldp", "cdp", "wdp", "gc",
                                  "sa", "dinar"])
def test_defense_runs_end_to_end(split, name):
    sim, g_auc, l_auc = _run(split, name)
    assert 0.5 <= g_auc <= 1.0
    assert 0.5 <= l_auc <= 1.0
    assert len(sim.history.records) >= 1


def test_sa_protects_local_but_not_global(split):
    _, g_none, l_none = _run(split, "none")
    _, g_sa, l_sa = _run(split, "sa")
    # global model identical to FedAvg: same leak as no defense
    assert abs(g_sa - g_none) < 0.03
    # individual masked updates are useless to the attacker
    assert l_sa < l_none - 0.05


def test_sa_global_model_matches_plain_fedavg(split):
    sim_none, *_ = _run(split, "none")
    sim_sa, *_ = _run(split, "sa")
    a = sim_none.server.global_weights.buffer
    b = sim_sa.server.global_weights.buffer
    # identical training seeds + masks cancel => same global model
    assert np.allclose(a, b, atol=1e-6)


def test_dinar_is_best_tradeoff(split):
    """DINAR should dominate: near-optimal AUC at near-baseline
    accuracy (the Fig. 7 bottom-right corner)."""
    sim_none, _, l_none = _run(split, "none")
    sim_dinar, _, l_dinar = _run(split, "dinar")
    assert l_dinar < l_none
    assert sim_dinar.history.final_client_accuracy \
        >= sim_none.history.final_client_accuracy - 0.05
