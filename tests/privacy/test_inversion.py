"""Model inversion attack tests (extension)."""

import numpy as np
import pytest

from repro.data.loader import iterate_batches
from repro.data.synthetic import synthetic_tabular
from repro.models.vgg import build_vgg_small
from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.model import Model
from repro.nn.optim import SGD
from repro.privacy.attacks.inversion import (
    class_inversion_report,
    invert_class,
    inversion_fidelity,
)


def _mlp(seed_in: int, seed_out: int) -> Model:
    return Model([Dense(16, 24, np.random.default_rng(seed_in)), Tanh(),
                  Dense(24, 3, np.random.default_rng(seed_out))])


@pytest.fixture(scope="module")
def trained():
    """A model trained to high accuracy on continuous prototype data."""
    rng = np.random.default_rng(0)
    data = synthetic_tabular(rng, 300, 16, 3, binary=False, noise=0.3)
    model = _mlp(1, 2)
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


def _written_out_inversion(model, target_class, input_shape, *, steps,
                           lr=0.5, l2_prior=1e-3):
    """``invert_class`` with the loss gradient spelled out: softmax of
    the logits, minus the one-hot target, divided by the batch size."""
    x = np.random.default_rng(0).standard_normal((1, *input_shape)) * 0.1
    for _ in range(steps):
        grad = softmax(model.forward(x, training=False))
        grad[0, target_class] -= 1.0
        grad /= len(grad)
        x = x - lr * (model.backward(grad) + l2_prior * x)
    return x[0]


def test_inversion_matches_written_out_loop_bitwise(trained):
    model, _ = trained
    vgg = build_vgg_small((3, 8, 8), 5, np.random.default_rng(4))
    for net, shape in [(model, (16,)), (vgg, (3, 8, 8))]:
        got = invert_class(net, 1, shape, steps=20)
        want = _written_out_inversion(net, 1, shape, steps=20)
        assert np.array_equal(got, want)


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
    fresh = _mlp(7, 8)
    reconstruction = invert_class(fresh, 0, (16,), steps=150)
    assert inversion_fidelity(
        reconstruction, data.x[data.y == 0]) < 0.5


def test_obfuscation_blocks_inversion(trained):
    """Randomizing the penultimate layer (DINAR's transmitted form)
    severs the reconstruction path."""
    model, data = trained
    garbled = _mlp(1, 2)
    rng = np.random.default_rng(3)
    weights = model.get_store()
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
