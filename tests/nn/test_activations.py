"""Value and gradient tests for every activation."""

import numpy as np
import pytest

from repro.nn.activations import ReLU, Tanh
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from tests.conftest import numeric_gradient_check


@pytest.mark.parametrize("activation_cls", [ReLU, Tanh])
def test_gradient_exact_through_activation(activation_cls, rng):
    model = Model([Dense(6, 8, rng), activation_cls(), Dense(8, 3, rng)])
    x = rng.standard_normal((7, 6))
    y = rng.integers(0, 3, 7)
    err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
    assert err < 1e-6


def test_relu_zeroes_negatives(ws):
    out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]), workspace=ws)
    assert out.tolist() == [[0.0, 0.0, 2.0]]


def test_tanh_bounded(rng, ws):
    out = Tanh().forward(rng.standard_normal((10, 10)) * 100, workspace=ws)
    assert np.all(np.abs(out) <= 1.0)
