"""Layer-sensitivity analysis tests (§3)."""

import numpy as np
import pytest

from repro.core.sensitivity import LayerSensitivity, layer_divergences
from repro.data.loader import iterate_batches
from repro.data.synthetic import synthetic_tabular
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD


@pytest.fixture
def trained_setup(rng, tiny_model_factory):
    data = synthetic_tabular(rng, 240, 20, 4, noise=0.35)
    members = data.subset(np.arange(120))
    nonmembers = data.subset(np.arange(120, 240))
    model = tiny_model_factory(np.random.default_rng(1))
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model, 0.2)
    for _ in range(40):
        for bx, by in iterate_batches(members.x, members.y, 32, rng):
            model.loss_and_grad(bx, by, loss)
            optimizer.step()
    return model, members, nonmembers


class TestLayerDivergences:
    def test_profile_shape(self, trained_setup, rng):
        model, members, nonmembers = trained_setup
        sens = layer_divergences(model, members.x, members.y,
                                 nonmembers.x, nonmembers.y, rng=rng)
        assert len(sens.divergences) == model.num_trainable_layers
        assert np.all(sens.divergences >= 0)
        assert np.all(sens.divergences <= 1)

    def test_overfit_model_diverges_more_than_fresh(self, trained_setup,
                                                    tiny_model_factory,
                                                    rng):
        model, members, nonmembers = trained_setup
        fresh = tiny_model_factory(np.random.default_rng(9))
        trained_sens = layer_divergences(
            model, members.x, members.y, nonmembers.x, nonmembers.y,
            rng=np.random.default_rng(0))
        fresh_sens = layer_divergences(
            fresh, members.x, members.y, nonmembers.x, nonmembers.y,
            rng=np.random.default_rng(0))
        assert trained_sens.divergences.max() > fresh_sens.divergences.max()

    def test_gradient_values_method(self, trained_setup, rng):
        model, members, nonmembers = trained_setup
        sens = layer_divergences(model, members.x, members.y,
                                 nonmembers.x, nonmembers.y, rng=rng,
                                 method="gradient_values")
        assert len(sens.divergences) == model.num_trainable_layers

    def test_unknown_method_rejected(self, trained_setup, rng):
        model, members, nonmembers = trained_setup
        with pytest.raises(ValueError):
            layer_divergences(model, members.x, members.y,
                              nonmembers.x, nonmembers.y, rng=rng,
                              method="telepathy")

    def test_empty_population_rejected(self, trained_setup, rng):
        model, members, _ = trained_setup
        empty = np.zeros((0, 20))
        with pytest.raises(ValueError):
            layer_divergences(model, members.x, members.y, empty,
                              np.zeros(0, dtype=int), rng=rng)


class TestLayerSensitivity:
    def test_most_sensitive_is_argmax(self):
        sens = LayerSensitivity(["a", "b", "c"],
                                np.array([0.1, 0.5, 0.2]))
        assert sens.most_sensitive_layer == 1

    def test_as_rows(self):
        sens = LayerSensitivity(["a", "b"], np.array([0.1, 0.2]))
        rows = sens.as_rows()
        assert rows == [(0, "a", pytest.approx(0.1)),
                        (1, "b", pytest.approx(0.2))]
