"""Model inversion attack tests (extension)."""

import numpy as np
import pytest

from repro.data.loader import iterate_batches
from repro.data.synthetic import synthetic_tabular
from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import SGD
from repro.privacy.attacks.inversion import (
    class_inversion_report,
    invert_class,
    inversion_fidelity,
)


@pytest.fixture(scope="module")
def trained():
    """A model trained to high accuracy on continuous prototype data."""
    rng = np.random.default_rng(0)
    data = synthetic_tabular(rng, 300, 16, 3, binary=False, noise=0.3)
    model = Model([Dense(16, 24, np.random.default_rng(1)), Tanh(),
                   Dense(24, 3, np.random.default_rng(2))])
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model, 0.1)
    for _ in range(80):
        for bx, by in iterate_batches(data.x, data.y, 32, rng):
            model.loss_and_grad(bx, by, loss)
            optimizer.step()
    return model, data


def test_inversion_output_shape(trained):
    model, data = trained
    reconstruction = invert_class(model, 0, (16,), steps=50)
    assert reconstruction.shape == (16,)
    assert np.all(np.isfinite(reconstruction))


def test_inversion_is_classified_as_target(trained):
    model, data = trained
    for cls in range(3):
        reconstruction = invert_class(model, cls, (16,), steps=150)
        assert model.predict(reconstruction[None])[0] == cls


def test_inversion_recovers_class_direction(trained):
    """The reconstruction correlates with the true class prototype far
    more than with other classes'."""
    model, data = trained
    reconstruction = invert_class(model, 0, (16,), steps=150)
    own = inversion_fidelity(reconstruction, data.x[data.y == 0])
    other = inversion_fidelity(reconstruction, data.x[data.y == 1])
    assert own > 0.5
    assert own > other


def test_untrained_model_gives_low_fidelity(trained):
    _, data = trained
    fresh = Model([Dense(16, 24, np.random.default_rng(7)), Tanh(),
                   Dense(24, 3, np.random.default_rng(8))])
    reconstruction = invert_class(fresh, 0, (16,), steps=150)
    assert inversion_fidelity(
        reconstruction, data.x[data.y == 0]) < 0.5


def test_obfuscation_blocks_inversion(trained):
    """Randomizing the penultimate layer (DINAR's transmitted form)
    severs the reconstruction path."""
    model, data = trained
    garbled = model.clone()
    rng = np.random.default_rng(3)
    weights = garbled.get_store()
    for entry in weights.layout.layer_entries(0):
        view = weights.view(0, entry.key)
        view[...] = rng.standard_normal(entry.shape) * view.std()
    garbled.set_store(weights)
    reconstruction = invert_class(garbled, 0, (16,), steps=150)
    fidelity = inversion_fidelity(reconstruction, data.x[data.y == 0])
    clean = inversion_fidelity(
        invert_class(model, 0, (16,), steps=150), data.x[data.y == 0])
    assert fidelity < clean


def test_report_covers_classes(trained):
    model, data = trained
    report = class_inversion_report(model, data.x, data.y,
                                    classes=[0, 1], steps=40)
    assert set(report) == {0, 1}


def test_rejects_bad_steps(trained):
    model, _ = trained
    with pytest.raises(ValueError):
        invert_class(model, 0, (16,), steps=0)


def test_fidelity_rejects_empty():
    with pytest.raises(ValueError):
        inversion_fidelity(np.zeros(4), np.zeros((0, 4)))
