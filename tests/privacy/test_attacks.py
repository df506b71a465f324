"""Attack behaviour tests: features, threshold, shadow, gradient."""

import numpy as np
import pytest

from repro.data.loader import iterate_batches
from repro.data.synthetic import synthetic_tabular
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.privacy.attacks.features import (
    FEATURE_NAMES,
    attack_features,
    per_example_loss,
)
from repro.privacy.attacks.gradient import (
    LayerGradientAttack,
    layer_gradient_scores,
    per_example_layer_gradient_norms,
)
from repro.privacy.attacks.metrics import attack_auc
from repro.privacy.attacks.shadow import ShadowAttack
from repro.privacy.attacks.threshold import LossThresholdAttack


@pytest.fixture
def overfit_setup(rng, tiny_model_factory):
    """A model memorizing 60 members, with 60 held-out non-members."""
    data = synthetic_tabular(rng, 200, 20, 4, noise=0.35, name="mia")
    members = data.subset(np.arange(60))
    nonmembers = data.subset(np.arange(60, 120))
    attacker = (data, np.arange(120, 200))
    model = tiny_model_factory(np.random.default_rng(1))
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model, 0.2)
    for _ in range(60):
        for bx, by in iterate_batches(members.x, members.y, 16, rng):
            model.loss_and_grad(bx, by, loss)
            optimizer.step()
    return model, members, nonmembers, attacker


class TestFeatures:
    def test_shape_and_names(self, overfit_setup):
        model, members, *_ = overfit_setup
        feats = attack_features(model, members.x, members.y)
        assert feats.shape == (60, len(FEATURE_NAMES))
        assert np.all(np.isfinite(feats))

    def test_members_have_lower_loss(self, overfit_setup):
        model, members, nonmembers, _ = overfit_setup
        m = per_example_loss(model, members.x, members.y)
        n = per_example_loss(model, nonmembers.x, nonmembers.y)
        assert m.mean() < n.mean()

    def test_members_have_higher_confidence(self, overfit_setup):
        model, members, nonmembers, _ = overfit_setup
        mf = attack_features(model, members.x, members.y)
        nf = attack_features(model, nonmembers.x, nonmembers.y)
        true_prob = FEATURE_NAMES.index("true_class_prob")
        assert mf[:, true_prob].mean() > nf[:, true_prob].mean()

    def test_rejects_length_mismatch(self, overfit_setup):
        model, members, *_ = overfit_setup
        with pytest.raises(ValueError):
            attack_features(model, members.x, members.y[:-1])


class TestLossThreshold:
    def test_detects_membership_on_overfit_model(self, overfit_setup):
        model, members, nonmembers, _ = overfit_setup
        attack = LossThresholdAttack()
        auc = attack_auc(
            attack.score(model, members.x, members.y),
            attack.score(model, nonmembers.x, nonmembers.y))
        assert auc > 0.65

    def test_random_model_near_chance(self, rng, tiny_model_factory,
                                      overfit_setup):
        _, members, nonmembers, _ = overfit_setup
        fresh = tiny_model_factory(rng)  # untrained: no membership signal
        attack = LossThresholdAttack()
        auc = attack_auc(
            attack.score(fresh, members.x, members.y),
            attack.score(fresh, nonmembers.x, nonmembers.y))
        assert auc < 0.62


class TestShadowAttack:
    def test_fit_and_score(self, overfit_setup, tiny_model_factory):
        model, members, nonmembers, attacker = overfit_setup
        attack = ShadowAttack(tiny_model_factory, num_shadows=2,
                              epochs=25, lr=0.2, batch_size=16)
        attack.fit(*attacker)
        m = attack.score(model, members.x, members.y)
        n = attack.score(model, nonmembers.x, nonmembers.y)
        assert np.all((0 <= m) & (m <= 1))
        assert attack_auc(m, n) > 0.6

    def test_score_before_fit_raises(self, overfit_setup,
                                     tiny_model_factory):
        model, members, *_ = overfit_setup
        attack = ShadowAttack(tiny_model_factory)
        with pytest.raises(RuntimeError):
            attack.score(model, members.x, members.y)

    def test_rejects_zero_shadows(self, tiny_model_factory):
        with pytest.raises(ValueError):
            ShadowAttack(tiny_model_factory, num_shadows=0)


class TestGradientAttack:
    def test_norm_matrix_shape(self, overfit_setup):
        model, members, *_ = overfit_setup
        norms = per_example_layer_gradient_norms(
            model, members.x, members.y, max_samples=10)
        assert norms.shape == (10, model.num_trainable_layers)
        assert np.all(norms >= 0)

    def test_members_have_smaller_gradients(self, overfit_setup):
        model, members, nonmembers, _ = overfit_setup
        m = per_example_layer_gradient_norms(
            model, members.x, members.y, max_samples=40)
        n = per_example_layer_gradient_norms(
            model, nonmembers.x, nonmembers.y, max_samples=40)
        assert m.mean() < n.mean()

    def test_layer_attack_beats_chance(self, overfit_setup):
        model, members, nonmembers, _ = overfit_setup
        attack = LayerGradientAttack(layer_index=2, max_samples=40)
        auc = attack_auc(
            attack.score(model, members.x[:40], members.y[:40]),
            attack.score(model, nonmembers.x[:40], nonmembers.y[:40]))
        assert auc > 0.6

    def test_rejects_bad_layer_index(self, overfit_setup):
        model, members, *_ = overfit_setup
        with pytest.raises(IndexError):
            layer_gradient_scores(model, members.x[:5], members.y[:5], 99)
