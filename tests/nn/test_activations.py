"""Value and gradient tests for every activation."""

import numpy as np
import pytest

from repro.nn.activations import (
    ELU,
    GELU,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.nn.layers import Dense
from repro.nn.losses import MSELoss, SoftmaxCrossEntropy
from repro.nn.model import Model
from tests.conftest import numeric_gradient_check


@pytest.mark.parametrize("activation_cls", [
    ReLU, LeakyReLU, Tanh, Sigmoid, ELU, GELU,
])
def test_gradient_exact_through_activation(activation_cls, rng):
    model = Model([Dense(6, 8, rng), activation_cls(), Dense(8, 3, rng)])
    x = rng.standard_normal((7, 6))
    y = rng.integers(0, 3, 7)
    err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
    assert err < 1e-6


def test_relu_zeroes_negatives(ws):
    out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]), workspace=ws)
    assert out.tolist() == [[0.0, 0.0, 2.0]]


def test_leaky_relu_slope(ws):
    out = LeakyReLU(0.1).forward(np.array([[-10.0, 10.0]]), workspace=ws)
    assert np.allclose(out, [[-1.0, 10.0]])


def test_tanh_bounded(rng, ws):
    out = Tanh().forward(rng.standard_normal((10, 10)) * 100, workspace=ws)
    assert np.all(np.abs(out) <= 1.0)


def test_sigmoid_extremes_stable(ws):
    out = Sigmoid().forward(np.array([[-1000.0, 0.0, 1000.0]]), workspace=ws)
    assert np.allclose(out, [[0.0, 0.5, 1.0]], atol=1e-12)
    assert np.all(np.isfinite(out))


def test_elu_continuous_at_zero(ws):
    layer = ELU(alpha=1.0)
    out = layer.forward(np.array([[-1e-9, 0.0, 1e-9]]), workspace=ws)
    assert np.allclose(out, 0.0, atol=1e-8)


def test_gelu_known_values(ws):
    out = GELU().forward(np.array([[0.0, 100.0]]), workspace=ws)
    assert np.isclose(out[0, 0], 0.0)
    assert np.isclose(out[0, 1], 100.0)  # acts as identity far right


def test_softmax_rows_sum_to_one(rng, ws):
    out = Softmax().forward(rng.standard_normal((5, 9)) * 10, workspace=ws)
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.all(out >= 0)


def test_softmax_gradient_exact(rng):
    model = Model([Dense(4, 6, rng), Softmax()])
    x = rng.standard_normal((5, 4))
    targets = rng.random((5, 6))
    err = numeric_gradient_check(model, x, targets, MSELoss(), rng)
    assert err < 1e-6


def test_softmax_invariant_to_shift(rng, ws):
    logits = rng.standard_normal((3, 5))
    a = Softmax().forward(logits, workspace=ws)
    b = Softmax().forward(logits + 1000.0, workspace=ws)
    assert np.allclose(a, b)
