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
    Flatten,
    MaxPool1d,
    MaxPool2d,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from tests.conftest import numeric_gradient_check

TOL = 1e-6


class TestDense:
    def test_forward_shape(self, rng, ws):
        layer = Dense(10, 7, rng)
        out = layer.forward(rng.standard_normal((4, 10)), workspace=ws)
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

    def test_backward_returns_input_gradient_shape(self, rng, ws):
        layer = Dense(10, 7, rng)
        x = rng.standard_normal((4, 10))
        layer.forward(x, workspace=ws)
        dx = layer.backward(rng.standard_normal((4, 7)), workspace=ws)
        assert dx.shape == x.shape


class TestConv2d:
    def test_forward_shape_with_padding(self, rng, ws):
        layer = Conv2d(3, 5, 3, rng, padding=1)
        out = layer.forward(rng.standard_normal((2, 3, 8, 8)), workspace=ws)
        assert out.shape == (2, 5, 8, 8)

    def test_forward_shape_with_stride(self, rng, ws):
        layer = Conv2d(3, 5, 3, rng, stride=2, padding=1)
        out = layer.forward(rng.standard_normal((2, 3, 8, 8)), workspace=ws)
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

    def test_matches_manual_convolution(self, rng, ws):
        """One output position equals the explicit dot product."""
        layer = Conv2d(1, 1, 2, rng)
        x = rng.standard_normal((1, 1, 3, 3))
        out = layer.forward(x, workspace=ws)
        w = layer.params["W"][0, 0]
        expected = (x[0, 0, :2, :2] * w).sum() + layer.params["b"][0]
        assert np.isclose(out[0, 0, 0, 0], expected)


class TestConv1d:
    def test_forward_shape(self, rng, ws):
        layer = Conv1d(1, 4, 9, rng, stride=4, padding=4)
        out = layer.forward(rng.standard_normal((2, 1, 64)), workspace=ws)
        assert out.shape == (2, 4, 16)

    def test_keeps_1d_weight_shape_and_name(self, rng):
        """Runs on the 2-D kernel, but layouts and segment names see a
        1-D layer."""
        layer = Conv1d(1, 4, 9, rng, stride=4, padding=4)
        assert layer.params["W"].shape == (4, 1, 9)
        assert layer.name == "Conv1d(1->4,k9)"
        assert MaxPool1d(4).name == "MaxPool1d"

    def test_gradient_exact(self, rng):
        model = Model([Conv1d(1, 3, 5, rng, stride=2, padding=2),
                       ReLU(), Flatten(), Dense(3 * 16, 4, rng)])
        x = rng.standard_normal((3, 1, 32))
        y = rng.integers(0, 4, 3)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < TOL


class TestPooling:
    def test_maxpool2d_selects_maxima(self, rng, ws):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x, workspace=ws)
        assert out.tolist() == [[[[5.0, 7.0], [13.0, 15.0]]]]

    def test_maxpool2d_rejects_indivisible(self, rng, ws):
        with pytest.raises(ValueError):
            MaxPool2d(3).forward(np.zeros((1, 1, 4, 4)), workspace=ws)

    def test_avgpool2d_averages(self, ws):
        x = np.ones((1, 1, 4, 4))
        out = AvgPool2d(2).forward(x, workspace=ws)
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

    def test_maxpool1d_rejects_indivisible(self, ws):
        with pytest.raises(ValueError):
            MaxPool1d(3).forward(np.zeros((1, 1, 16)), workspace=ws)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layer, shape", [
        (MaxPool2d(2), (5, 3, 8, 12)), (MaxPool1d(4), (5, 3, 1, 64))])
    @pytest.mark.parametrize("conv_layout", [False, True])
    def test_maxpool_equals_the_block_reduction(self, rng, ws, layer,
                                                shape, conv_layout, dtype):
        """Pairwise maxima give the reduction's bits and memory order,
        with +0/-0 ties and NaN columns (a NaN anywhere in a block wins)."""
        n, c, h, w = shape
        x = rng.standard_normal((n, h, w, c) if conv_layout else shape)
        x = (x.transpose(0, 3, 1, 2) if conv_layout else x).astype(dtype)
        x[:2], x[:2, :, :, ::3] = 0.0, -0.0
        x[2, 0, 0, 1] = x[3, 1, 0, 5] = np.nan
        kh, kw = layer._kernel
        expected = x.reshape(n, c, h // kh, kh, w // kw, kw).max(axis=(3, 5))
        out = layer.forward(x if h > 1 else x[:, :, 0], workspace=ws)
        out = out.reshape(expected.shape)
        assert np.isnan(out).sum() == 2
        assert out.tobytes("A") == expected.tobytes("A")
        assert out.strides == expected.strides

    def test_prediction_builds_no_mask_and_backward_still_can(self, rng):
        """A forward outside training builds no argmax mask; a backward
        after it (model inversion) gives the training forward's input
        gradient bit for bit."""
        model = Model([Conv2d(1, 2, 3, rng, padding=1), ReLU(),
                       MaxPool2d(2), Flatten(), Dense(2 * 3 * 3, 3, rng)])
        pool = model.layers[2]
        x = rng.standard_normal((4, 1, 6, 6))
        model.predict(x)
        owner = model.workspace.owner_index(pool)
        roles = [key[1] for key in model.workspace.keys()
                 if key[0] == owner]
        assert roles and not [role for role in roles
                              if role.startswith("mask")]
        loss = SoftmaxCrossEntropy()
        y = rng.integers(0, 3, 4)
        grads = []
        for training in (True, False):
            logits = model.forward(x, training=training)
            loss.forward(logits, y, workspace=model.workspace)
            grads.append(model.backward(loss.backward()).copy())
        assert grads[0].tobytes() == grads[1].tobytes()


class TestFlatten:
    def test_roundtrip(self, rng, ws):
        layer = Flatten()
        x = rng.standard_normal((3, 2, 4, 4))
        out = layer.forward(x, workspace=ws)
        assert out.shape == (3, 32)
        back = layer.backward(out, workspace=ws)
        assert back.shape == x.shape


class TestBatchNorm1d:
    def test_normalizes_batch(self, rng, ws):
        layer = BatchNorm1d(5)
        x = rng.standard_normal((64, 5)) * 3.0 + 2.0
        out = layer.forward(x, training=True, workspace=ws)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_updated(self, rng, ws):
        layer = BatchNorm1d(5, momentum=1.0)
        x = rng.standard_normal((64, 5)) + 4.0
        layer.forward(x, training=True, workspace=ws)
        assert np.allclose(layer.buffers["running_mean"], x.mean(axis=0))

    def test_eval_uses_running_stats(self, rng, ws):
        layer = BatchNorm1d(3, momentum=1.0)
        x = rng.standard_normal((32, 3))
        layer.forward(x, training=True, workspace=ws)
        single = layer.forward(x[:1], training=False, workspace=ws)
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
