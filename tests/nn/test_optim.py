"""Optimizer tests: update rules, convergence, and the Algorithm-1 form."""

import numpy as np
import pytest

from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.model import Model
from repro.nn.optim import (
    ADGD,
    AdaMax,
    Adagrad,
    Adam,
    RMSProp,
    SGD,
    make_optimizer,
    optimizer_names,
)


def _blob_problem(rng, n_per_class=40):
    protos = rng.standard_normal((3, 10)) * 3
    x = np.concatenate(
        [protos[i] + 0.5 * rng.standard_normal((n_per_class, 10))
         for i in range(3)])
    y = np.repeat(np.arange(3), n_per_class)
    return x, y


def _fresh_model():
    rng = np.random.default_rng(42)
    return Model([Dense(10, 16, rng), Tanh(), Dense(16, 3, rng)])


@pytest.mark.parametrize("name,lr", [
    ("sgd", 0.1), ("adagrad", 0.02), ("adam", 0.01),
    ("adamax", 0.01), ("rmsprop", 0.005), ("adgd", 0.05),
])
def test_optimizer_converges(name, lr, rng):
    x, y = _blob_problem(rng)
    model = _fresh_model()
    optimizer = make_optimizer(name, model, lr)
    loss = SoftmaxCrossEntropy()
    for _ in range(60):
        model.loss_and_grad(x, y, loss)
        optimizer.step()
    assert accuracy(model.predict(x), y) > 0.95


class TestSGD:
    def test_single_step_matches_formula(self, rng):
        model = _fresh_model()
        before = model.get_store()
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        grad = model.trainable[0].grads["W"].copy()
        SGD(model, 0.5).step()
        after = model.get_store()
        assert np.allclose(after.view(0, "W"),
                           before.view(0, "W") - 0.5 * grad)

    def test_momentum_accumulates(self, rng):
        model = _fresh_model()
        optimizer = SGD(model, 0.1, momentum=0.9)
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        optimizer.step()
        assert optimizer.state  # momentum buffers exist

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD(_fresh_model(), 0.1, momentum=1.0)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(_fresh_model(), 0.0)


class TestAdagrad:
    def test_first_step_is_sign_scaled(self, rng):
        """With G = g^2 on the first step the update is roughly
        lr * sign(g) wherever |g| >> sqrt(eps) — Algorithm 1's shape."""
        model = _fresh_model()
        before = model.get_store()
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        grad = model.trainable[0].grads["W"].copy()
        Adagrad(model, 0.01).step()
        delta = model.get_store().view(0, "W") - before.view(0, "W")
        big = np.abs(grad) > 0.01
        assert np.allclose(delta[big], -0.01 * np.sign(grad[big]),
                           atol=0.002)

    def test_eps_inside_sqrt(self, rng):
        """The stabilizer sits inside the sqrt exactly as the paper
        writes: theta -= lr * g / sqrt(G + 1e-5)."""
        model = _fresh_model()
        optimizer = Adagrad(model, 0.1)
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        grad = model.trainable[0].grads["W"].copy()
        before = model.trainable[0].params["W"].copy()
        optimizer.step()
        expected = before - 0.1 * grad / np.sqrt(grad ** 2 + 1e-5)
        assert np.allclose(model.trainable[0].params["W"], expected)

    def test_steps_shrink_over_time(self, rng):
        model = _fresh_model()
        optimizer = Adagrad(model, 0.1)
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        deltas = []
        for _ in range(5):
            before = model.trainable[0].params["W"].copy()
            model.loss_and_grad(x, y, loss)
            optimizer.step()
            deltas.append(np.abs(
                model.trainable[0].params["W"] - before).mean())
        assert deltas[-1] < deltas[0]

    def test_reset_clears_accumulator(self, rng):
        model = _fresh_model()
        optimizer = Adagrad(model, 0.1)
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        optimizer.step()
        optimizer.reset()
        assert not optimizer.state
        assert optimizer.steps == 0


class TestAdamFamily:
    def test_adam_bias_correction_first_step(self, rng):
        """After bias correction the first Adam step is ~lr*sign(g)."""
        model = _fresh_model()
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        grad = model.trainable[0].grads["W"].copy()
        before = model.trainable[0].params["W"].copy()
        Adam(model, 0.01).step()
        delta = model.trainable[0].params["W"] - before
        big = np.abs(grad) > 1e-3
        assert np.allclose(delta[big], -0.01 * np.sign(grad[big]),
                           atol=1e-3)

    def test_adamax_uses_infinity_norm(self, rng):
        model = _fresh_model()
        optimizer = AdaMax(model, 0.01)
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        optimizer.step()
        u = optimizer.state["u"]
        assert u.shape == (model.num_parameters(),)
        assert np.all(u >= 0)

    def test_rmsprop_decays_accumulator(self, rng):
        model = _fresh_model()
        optimizer = RMSProp(model, 0.01, decay=0.5)
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        optimizer.step()
        first = optimizer.state["accum"].copy()
        model.loss_and_grad(x, y, loss)
        optimizer.step()
        assert not np.allclose(first, optimizer.state["accum"])


class TestADGD:
    def test_adapts_step_size(self, rng):
        model = _fresh_model()
        optimizer = ADGD(model, 0.05)
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        for _ in range(3):
            model.loss_and_grad(x, y, loss)
            optimizer.step()
        assert optimizer._lam != 0.05  # stepsize has adapted

    def test_reset_restores_initial_state(self, rng):
        model = _fresh_model()
        optimizer = ADGD(model, 0.05)
        loss = SoftmaxCrossEntropy()
        x, y = _blob_problem(rng)
        model.loss_and_grad(x, y, loss)
        optimizer.step()
        optimizer.reset()
        assert optimizer._lam == 0.05
        assert optimizer._prev_params is None


class TestRegistry:
    def test_all_names_buildable(self):
        for name in optimizer_names():
            assert make_optimizer(name, _fresh_model(), 0.01) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer("sgdm", _fresh_model(), 0.01)

    def test_step_without_gradients_fails(self):
        with pytest.raises(RuntimeError):
            SGD(_fresh_model(), 0.1).step()
