"""Integration: the full DINAR pipeline of Fig. 2 — initialization
(consensus), then per-round personalize -> train -> obfuscate — wired
through the real FL simulator, and the paper's two headline claims:

* the obfuscated updates defeat the MIA (attack AUC ~ 50%);
* personalization preserves client utility.
"""

import numpy as np
import pytest

from repro.core.dinar import DINAR, dinar_initialization
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.privacy.attacks.metrics import (
    global_model_auc,
    local_models_auc,
)
from repro.privacy.attacks.threshold import LossThresholdAttack


@pytest.fixture(scope="module")
def pipeline():
    """One no-defense and one DINAR run over the same split."""
    rng = np.random.default_rng(0)
    data = synthetic_tabular(rng, 900, 40, 6, noise=0.35, name="pipe")
    split = split_for_membership(data, rng)

    def factory(model_rng):
        from repro.models.fcnn import build_fcnn
        return build_fcnn(40, 6, model_rng, hidden=(32, 24, 16))

    config = FLConfig(num_clients=3, rounds=4, local_epochs=4, lr=0.15,
                      batch_size=32, seed=0)

    init = dinar_initialization(factory, [
        data.subset(np.arange(i * 100, (i + 1) * 100))
        for i in range(3)
    ], warmup_epochs=4, lr=0.01, batch_size=32, seed=0)

    baseline = FederatedSimulation(split, factory, config)
    baseline.run()
    defended = FederatedSimulation(
        split, factory, config,
        DINAR(private_layer=init.private_layer, lr=0.02))
    defended.run()
    return init, baseline, defended


def test_consensus_picks_valid_layer(pipeline):
    init, baseline, _ = pipeline
    assert 0 <= init.private_layer \
        < baseline.global_model().num_trainable_layers


def test_baseline_leaks_membership(pipeline):
    _, baseline, _ = pipeline
    attack = LossThresholdAttack()
    assert local_models_auc(attack, baseline, max_samples=150) > 0.60


def test_dinar_protects_local_models(pipeline):
    _, baseline, defended = pipeline
    attack = LossThresholdAttack()
    protected = local_models_auc(attack, defended, max_samples=150)
    unprotected = local_models_auc(attack, baseline, max_samples=150)
    assert protected < unprotected
    assert protected < 0.58  # near the 50% optimum


def test_dinar_protects_global_model(pipeline):
    _, baseline, defended = pipeline
    attack = LossThresholdAttack()
    protected = global_model_auc(attack, defended, max_samples=150)
    assert protected < 0.58


def test_dinar_preserves_client_utility(pipeline):
    _, baseline, defended = pipeline
    assert defended.history.final_client_accuracy \
        >= baseline.history.final_client_accuracy - 0.05


def test_transmitted_layer_is_obfuscated(pipeline):
    init, _, defended = pipeline
    p = init.private_layer
    sent = defended.last_updates[0]
    personal = defended.registry[0]
    # transmitted private layer differs from the client's real one...
    assert not np.allclose(sent.view(p, "W"), personal.view(p, "W"))
    # ...while the other layers match exactly
    for j in range(sent.layout.num_layers):
        if j != p:
            assert np.array_equal(sent.view(j, "W"), personal.view(j, "W"))


def test_personalized_model_beats_global_for_client(pipeline):
    """The client predicts with its personalized model, not the
    (obfuscated) global model — and it is strictly better."""
    _, _, defended = pipeline
    test = defended.split.nonmembers
    personalized = defended.fleet.evaluate_weights(
        defended.registry[0], test.x, test.y)
    global_acc = defended.history.final_global_accuracy
    assert personalized > global_acc
