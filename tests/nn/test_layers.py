"""Gradient-exactness and contract tests for every layer type."""

import numpy as np
import pytest

from repro.nn.activations import ReLU, Tanh
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    Conv1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    MaxPool1d,
    MaxPool2d,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from tests.conftest import numeric_gradient_check

TOL = 1e-6


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(10, 7, rng)
        out = layer.forward(rng.standard_normal((4, 10)))
        assert out.shape == (4, 7)

    def test_gradient_exact(self, rng):
        model = Model([Dense(10, 7, rng), Tanh(), Dense(7, 3, rng)])
        x = rng.standard_normal((8, 10))
        y = rng.integers(0, 3, 8)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < TOL

    def test_bias_initialized_to_zero(self, rng):
        layer = Dense(5, 5, rng)
        assert np.all(layer.params["b"] == 0.0)

    def test_num_parameters(self, rng):
        layer = Dense(10, 7, rng)
        assert layer.num_parameters() == 10 * 7 + 7

    def test_backward_returns_input_gradient_shape(self, rng):
        layer = Dense(10, 7, rng)
        x = rng.standard_normal((4, 10))
        layer.forward(x)
        dx = layer.backward(rng.standard_normal((4, 7)))
        assert dx.shape == x.shape


class TestConv2d:
    def test_forward_shape_with_padding(self, rng):
        layer = Conv2d(3, 5, 3, rng, padding=1)
        out = layer.forward(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 5, 8, 8)

    def test_forward_shape_with_stride(self, rng):
        layer = Conv2d(3, 5, 3, rng, stride=2, padding=1)
        out = layer.forward(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 5, 4, 4)

    def test_gradient_exact(self, rng):
        model = Model([Conv2d(2, 3, 3, rng, padding=1), ReLU(),
                       Flatten(), Dense(3 * 6 * 6, 4, rng)])
        x = rng.standard_normal((3, 2, 6, 6))
        y = rng.integers(0, 4, 3)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < TOL

    def test_gradient_exact_strided(self, rng):
        model = Model([Conv2d(2, 3, 3, rng, stride=2, padding=1),
                       Flatten(), Dense(3 * 4 * 4, 4, rng)])
        x = rng.standard_normal((3, 2, 8, 8))
        y = rng.integers(0, 4, 3)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < TOL

    def test_matches_manual_convolution(self, rng):
        """One output position equals the explicit dot product."""
        layer = Conv2d(1, 1, 2, rng)
        x = rng.standard_normal((1, 1, 3, 3))
        out = layer.forward(x)
        w = layer.params["W"][0, 0]
        expected = (x[0, 0, :2, :2] * w).sum() + layer.params["b"][0]
        assert np.isclose(out[0, 0, 0, 0], expected)


class TestConv1d:
    def test_forward_shape(self, rng):
        layer = Conv1d(1, 4, 9, rng, stride=4, padding=4)
        out = layer.forward(rng.standard_normal((2, 1, 64)))
        assert out.shape == (2, 4, 16)

    def test_gradient_exact(self, rng):
        model = Model([Conv1d(1, 3, 5, rng, stride=2, padding=2),
                       ReLU(), Flatten(), Dense(3 * 16, 4, rng)])
        x = rng.standard_normal((3, 1, 32))
        y = rng.integers(0, 4, 3)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < TOL


class TestPooling:
    def test_maxpool2d_selects_maxima(self, rng):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        assert out.tolist() == [[[[5.0, 7.0], [13.0, 15.0]]]]

    def test_maxpool2d_rejects_indivisible(self, rng):
        with pytest.raises(ValueError):
            MaxPool2d(3).forward(np.zeros((1, 1, 4, 4)))

    def test_avgpool2d_averages(self):
        x = np.ones((1, 1, 4, 4))
        out = AvgPool2d(2).forward(x)
        assert np.allclose(out, 1.0)

    def test_maxpool2d_gradient_exact(self, rng):
        model = Model([Conv2d(1, 2, 3, rng, padding=1), MaxPool2d(2),
                       Flatten(), Dense(2 * 3 * 3, 3, rng)])
        x = rng.standard_normal((2, 1, 6, 6))
        y = rng.integers(0, 3, 2)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < TOL

    def test_avgpool2d_gradient_exact(self, rng):
        model = Model([Conv2d(1, 2, 3, rng, padding=1), AvgPool2d(2),
                       Flatten(), Dense(2 * 3 * 3, 3, rng)])
        x = rng.standard_normal((2, 1, 6, 6))
        y = rng.integers(0, 3, 2)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < TOL

    def test_maxpool1d_gradient_exact(self, rng):
        model = Model([Conv1d(1, 2, 3, rng, padding=1), MaxPool1d(4),
                       Flatten(), Dense(2 * 4, 3, rng)])
        x = rng.standard_normal((2, 1, 16))
        y = rng.integers(0, 3, 2)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < TOL

    def test_maxpool1d_rejects_indivisible(self):
        with pytest.raises(ValueError):
            MaxPool1d(3).forward(np.zeros((1, 1, 16)))


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = Flatten()
        x = rng.standard_normal((3, 2, 4, 4))
        out = layer.forward(x)
        assert out.shape == (3, 32)
        back = layer.backward(out)
        assert back.shape == x.shape


class TestDropout:
    def test_identity_at_eval(self, rng):
        layer = Dropout(0.5)
        layer.attach_rng(rng)
        x = rng.standard_normal((4, 10))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_scales_kept_units(self, rng):
        layer = Dropout(0.5)
        layer.attach_rng(rng)
        x = np.ones((2000, 10))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scaling
        assert abs(out.mean() - 1.0) < 0.1

    def test_requires_rng_when_training(self):
        with pytest.raises(RuntimeError):
            Dropout(0.5).forward(np.ones((2, 2)), training=True)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_zero_rate_is_identity(self, rng):
        layer = Dropout(0.0)
        layer.attach_rng(rng)
        x = rng.standard_normal((3, 3))
        assert np.array_equal(layer.forward(x, training=True), x)


class TestBatchNorm1d:
    def test_normalizes_batch(self, rng):
        layer = BatchNorm1d(5)
        x = rng.standard_normal((64, 5)) * 3.0 + 2.0
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_updated(self, rng):
        layer = BatchNorm1d(5, momentum=1.0)
        x = rng.standard_normal((64, 5)) + 4.0
        layer.forward(x, training=True)
        assert np.allclose(layer.buffers["running_mean"], x.mean(axis=0))

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm1d(3, momentum=1.0)
        x = rng.standard_normal((32, 3))
        layer.forward(x, training=True)
        single = layer.forward(x[:1], training=False)
        expected = (x[:1] - layer.buffers["running_mean"]) / np.sqrt(
            layer.buffers["running_var"] + layer.eps)
        assert np.allclose(single, expected)

    def test_gradient_exact(self, rng):
        model = Model([Dense(6, 8, rng), BatchNorm1d(8, momentum=0.0),
                       Tanh(), Dense(8, 3, rng)])
        x = rng.standard_normal((10, 6))
        y = rng.integers(0, 3, 10)
        err = numeric_gradient_check(
            model, x, y, SoftmaxCrossEntropy(), rng, training_forward=True)
        assert err < 1e-5

    def test_state_includes_buffers(self, rng):
        layer = BatchNorm1d(4)
        state = {**layer.params, **layer.buffers}
        assert set(state) == {"gamma", "beta", "running_mean",
                              "running_var"}
