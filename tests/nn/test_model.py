"""Model contracts: weight exchange, layer indexing, inference, helpers."""

import numpy as np
import pytest

from repro.nn.activations import Tanh
from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.store import WeightStore


class TestModelStructure:
    def test_trainable_excludes_activations(self, tiny_model):
        assert tiny_model.num_trainable_layers == 3

    def test_layer_names(self, tiny_model):
        names = tiny_model.layer_names()
        assert names == ["Dense(20x16)", "Dense(16x8)", "Dense(8x4)"]

    def test_num_parameters(self, tiny_model):
        expected = (20 * 16 + 16) + (16 * 8 + 8) + (8 * 4 + 4)
        assert tiny_model.num_parameters() == expected


class TestWeightExchange:
    def test_get_set_roundtrip(self, tiny_model, rng):
        weights = tiny_model.get_store()
        x = rng.standard_normal((5, 20))
        before = tiny_model.predict_logits(x)
        tiny_model.set_store(weights)
        assert np.allclose(tiny_model.predict_logits(x), before)

    def test_get_weights_returns_copies(self, tiny_model):
        weights = tiny_model.get_store()
        weights.view(0, "W")[...] = 42.0
        assert not np.any(tiny_model.trainable[0].params["W"] == 42.0)

    def test_set_weights_checks_layer_count(self, tiny_model, rng):
        shallower = Model([Dense(20, 16, rng), Tanh(), Dense(16, 4, rng)])
        with pytest.raises(ValueError):
            tiny_model.set_store(shallower.get_store())

    def test_batchnorm_buffers_travel(self, rng):
        model = Model([Dense(4, 6, rng), BatchNorm1d(6), Tanh(),
                       Dense(6, 2, rng)])
        model.forward(rng.standard_normal((32, 4)), training=True)
        weights = model.get_store()
        assert "running_mean" in [
            e.key for e in weights.layout.layer_entries(1)]
        fresh = Model([Dense(4, 6, rng), BatchNorm1d(6), Tanh(),
                       Dense(6, 2, rng)])
        fresh.set_store(weights)
        assert np.allclose(
            fresh.trainable[1].buffers["running_mean"],
            model.trainable[1].buffers["running_mean"])


class TestInference:
    def test_predict_matches_argmax(self, tiny_model, rng):
        x = rng.standard_normal((6, 20))
        assert np.array_equal(
            tiny_model.predict(x),
            tiny_model.predict_logits(x).argmax(axis=1))

    def test_batched_inference_matches_single_pass(self, tiny_model, rng):
        x = rng.standard_normal((300, 20))
        full = tiny_model.forward(x, training=False).copy()
        batched = tiny_model.predict_logits(x, batch_size=64)
        assert np.allclose(full, batched)


class TestGradientViews:
    def test_per_layer_gradient_vectors_shapes(self, tiny_model, rng):
        x = rng.standard_normal((8, 20))
        y = rng.integers(0, 4, 8)
        vectors = tiny_model.per_layer_gradient_vectors(
            x, y, SoftmaxCrossEntropy())
        assert len(vectors) == 3
        assert vectors[0].shape == (20 * 16 + 16,)
        assert vectors[2].shape == (8 * 4 + 4,)


class TestWeightHelpers:
    def test_unflatten_rejects_wrong_size(self, tiny_model):
        layout = tiny_model.weight_layout()
        with pytest.raises(ValueError):
            WeightStore(layout, np.zeros(3))

    def test_zeros_like_store(self, tiny_model):
        zeros = tiny_model.get_store().zeros_like()
        assert zeros.l2() == 0.0

    def test_l2_norm_matches_flat_vector(self, tiny_model):
        weights = tiny_model.get_store()
        assert np.isclose(weights.l2(),
                          np.linalg.norm(weights.buffer))

    def test_allclose_detects_difference(self, tiny_model):
        a = tiny_model.get_store()
        b = tiny_model.get_store()
        b.view(0, "W")[0, 0] += 1.0
        assert not a.allclose(b)
