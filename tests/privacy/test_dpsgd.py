"""DP-SGD optimizer tests."""

import numpy as np
import pytest

from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.privacy.defenses.dpsgd import DPSGD


def _model_and_batch(rng):
    model = Model([Dense(10, 8, rng), Tanh(), Dense(8, 3, rng)])
    x = rng.standard_normal((16, 10))
    y = rng.integers(0, 3, 16)
    return model, x, y


def test_zero_noise_with_huge_clip_matches_sgd():
    model, x, y = _model_and_batch(np.random.default_rng(0))
    twin, _, _ = _model_and_batch(np.random.default_rng(0))
    loss = SoftmaxCrossEntropy()

    model.loss_and_grad(x, y, loss)
    DPSGD(model, 0.1, clip_norm=1e9, noise_multiplier=0.0).step()

    twin.loss_and_grad(x, y, loss)
    from repro.nn.optim import SGD
    SGD(twin, 0.1).step()

    assert np.allclose(model.trainable[0].params["W"],
                       twin.trainable[0].params["W"])


def test_clipping_bounds_step_norm(rng):
    model, x, y = _model_and_batch(rng)
    before = [p.copy() for layer in model.trainable
              for p in layer.params.values()]
    model.loss_and_grad(x, y, SoftmaxCrossEntropy())
    DPSGD(model, 1.0, clip_norm=0.01, noise_multiplier=0.0).step()
    after = [p for layer in model.trainable
             for p in layer.params.values()]
    step = np.sqrt(sum(((a - b) ** 2).sum()
                       for a, b in zip(after, before)))
    assert step <= 0.01 + 1e-9  # lr=1, grad clipped to 0.01


def test_noise_scales_with_multiplier(rng):
    deltas = {}
    for z in (0.0, 5.0):
        model, x, y = _model_and_batch(np.random.default_rng(7))
        before = model.trainable[0].params["W"].copy()
        model.loss_and_grad(x, y, SoftmaxCrossEntropy())
        optimizer = DPSGD(model, 0.1, clip_norm=0.001,
                          noise_multiplier=z,
                          rng=np.random.default_rng(1))
        optimizer.notify_batch_size(16)
        optimizer.step()
        deltas[z] = np.abs(model.trainable[0].params["W"] - before).mean()
    assert deltas[5.0] > deltas[0.0]


def test_noise_shrinks_with_batch_size(rng):
    def mean_noise(batch):
        model, x, y = _model_and_batch(np.random.default_rng(7))
        before = model.trainable[0].params["W"].copy()
        model.loss_and_grad(x, y, SoftmaxCrossEntropy())
        optimizer = DPSGD(model, 1.0, clip_norm=1e-9,
                          noise_multiplier=1.0,
                          rng=np.random.default_rng(1))
        optimizer.notify_batch_size(batch)
        optimizer.step()
        return np.abs(model.trainable[0].params["W"] - before).mean()

    assert mean_noise(4) > mean_noise(64)


def test_rejects_bad_params(rng):
    model, *_ = _model_and_batch(rng)
    with pytest.raises(ValueError):
        DPSGD(model, 0.1, clip_norm=0.0)
    with pytest.raises(ValueError):
        DPSGD(model, 0.1, noise_multiplier=-1.0)


def test_still_learns_with_mild_noise(rng):
    model, _, _ = _model_and_batch(rng)
    protos = rng.standard_normal((3, 10)) * 3
    x = np.concatenate([protos[i] + 0.3 * rng.standard_normal((30, 10))
                        for i in range(3)])
    y = np.repeat(np.arange(3), 30)
    loss = SoftmaxCrossEntropy()
    optimizer = DPSGD(model, 0.1, clip_norm=5.0, noise_multiplier=0.1,
                      rng=rng)
    optimizer.notify_batch_size(len(x))
    for _ in range(80):
        model.loss_and_grad(x, y, loss)
        optimizer.step()
    from repro.nn.metrics import accuracy
    assert accuracy(model.predict(x), y) > 0.9
