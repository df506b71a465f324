"""Flat-plane aliasing contracts.

The refactored ``Model`` owns one contiguous weight buffer and one
gradient buffer; every ``Layer`` holds zero-copy shaped views into
them.  These tests pin the aliasing rules down: writes through either
side must be visible on the other, and binding/loading with wrong
names must fail loudly.
"""

import numpy as np
import pytest

from repro.models.resnet import ResidualBlock
from repro.nn.activations import ReLU, Tanh
from repro.nn.layers import BatchNorm1d, Conv2d, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.store import Layout, WeightStore


def _bn_model(seed=0):
    rng = np.random.default_rng(seed)
    return Model([Dense(6, 8, rng), BatchNorm1d(8), Tanh(),
                  Dense(8, 3, rng)])


class TestViewAliasing:
    def test_every_param_view_aliases_the_buffer(self):
        model = _bn_model()
        buffer = model.weights.buffer
        for idx, layer in enumerate(model.trainable):
            for entry in model.weight_layout().layer_entries(idx):
                view = (layer.params if entry.trainable
                        else layer.buffers)[entry.key]
                assert view.base is buffer
                assert view.shape == entry.shape

    def test_layer_write_shows_up_in_buffer(self, rng):
        model = _bn_model()
        layout = model.weight_layout()
        for idx, layer in enumerate(model.trainable):
            for entry in layout.layer_entries(idx):
                view = (layer.params if entry.trainable
                        else layer.buffers)[entry.key]
                noise = rng.standard_normal(entry.shape)
                view[...] = noise
                segment = model.weights.buffer[entry.offset:entry.stop]
                assert np.array_equal(segment, noise.ravel())

    def test_buffer_write_shows_up_in_layer(self, rng):
        model = _bn_model()
        fresh = rng.standard_normal(model.weights.buffer.size)
        model.weights.buffer[...] = fresh
        layout = model.weight_layout()
        for idx, layer in enumerate(model.trainable):
            for entry in layout.layer_entries(idx):
                view = (layer.params if entry.trainable
                        else layer.buffers)[entry.key]
                assert np.array_equal(
                    view.ravel(), fresh[entry.offset:entry.stop])

    def test_backward_writes_into_grad_vector(self, rng):
        model = _bn_model()
        x = rng.standard_normal((16, 6))
        y = rng.integers(0, 3, 16)
        model.loss_and_grad(x, y, SoftmaxCrossEntropy())
        layout = model.weight_layout()
        for idx, layer in enumerate(model.trainable):
            for key, grad in layer.grads.items():
                assert grad.base is model.grad_vector
        # trainable coordinates received gradient, buffers stayed zero
        mask = np.zeros(layout.num_params, dtype=bool)
        for segment in layout.param_segments:
            mask[segment] = True
        assert np.any(model.grad_vector[mask] != 0.0)
        assert np.all(model.grad_vector[~mask] == 0.0)

    def test_residual_block_views_alias_inner_convs(self):
        rng = np.random.default_rng(1)
        model = Model([Conv2d(2, 4, 3, rng, padding=1), ReLU(),
                       ResidualBlock(4, rng)])
        block = model.trainable[1]
        buffer = model.weights.buffer
        assert block.conv1.params["W"].base is buffer
        assert block.conv2.params["b"].base is buffer
        assert np.shares_memory(block.params["conv1.W"],
                                block.conv1.params["W"])


class TestStoreExchange:
    def test_paramless_model_has_no_weights(self):
        model = Model([Tanh(), ReLU()])
        assert model.num_trainable_layers == 0
        with pytest.raises(ValueError):
            model.weights

    def test_get_store_is_a_snapshot(self):
        model = _bn_model()
        snap = model.get_store()
        snap.buffer[:] = -1.0
        assert not np.any(model.weights.buffer == -1.0)

    def test_set_store_copies_into_live_buffer(self):
        model = _bn_model()
        live = model.weights.buffer
        snap = model.get_store()
        snap.buffer[:] = 0.25
        model.set_store(snap)
        assert model.weights.buffer is live  # no rebind, pure copy
        assert np.all(live == 0.25)
        assert np.all(model.trainable[0].params["W"] == 0.25)

    def test_set_store_rejects_foreign_layout(self):
        model = _bn_model()
        other = Model([Dense(3, 2, np.random.default_rng(0))])
        with pytest.raises(ValueError):
            model.set_store(other.get_store())


class TestBindingStrictness:
    def test_adopt_views_rejects_unknown_param(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng)
        params = {k: v.copy() for k, v in layer.params.items()}
        grads = {k: np.zeros_like(v) for k, v in layer.params.items()}
        params["V"] = np.zeros((4, 3))
        with pytest.raises(KeyError):
            layer.adopt_views(params, {}, grads)

    def test_adopt_views_rejects_missing_param(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng)
        params = {"W": layer.params["W"].copy()}  # "b" missing
        grads = {k: np.zeros_like(v) for k, v in layer.params.items()}
        with pytest.raises(KeyError):
            layer.adopt_views(params, {}, grads)

    def test_residual_adopt_views_rejects_unrouted_key(self):
        rng = np.random.default_rng(0)
        block = ResidualBlock(4, rng)
        params = {k: v.copy() for k, v in block.params.items()}
        grads = {k: np.zeros_like(v) for k, v in block.params.items()}
        params["conv3.W"] = np.zeros(1)
        grads["conv3.W"] = np.zeros(1)
        with pytest.raises(KeyError):
            block.adopt_views(params, {}, grads)


class TestLayoutIndexing:
    def test_param_segments_cover_exactly_the_trainable_entries(self):
        model = _bn_model()
        layout = model.weight_layout()
        from_segments = np.zeros(layout.num_params, dtype=bool)
        for segment in layout.param_segments:
            from_segments[segment] = True
        from_entries = np.zeros(layout.num_params, dtype=bool)
        for entry in layout.entries:
            if entry.trainable:
                from_entries[entry.offset:entry.stop] = True
        assert np.array_equal(from_segments, from_entries)
        assert layout.num_trainable == int(from_entries.sum())

    def test_segments_are_maximal_and_sorted(self):
        layout = _bn_model().weight_layout()
        segments = layout.param_segments
        for a, b in zip(segments, segments[1:]):
            assert a.stop < b.start  # merged runs never touch

    def test_trainable_flag_affects_layout_equality(self):
        """Marking a batch-norm buffer trainable changes what DP, DINAR
        and the optimizers touch, so it is another layout."""
        model = _bn_model()
        layout = model.weight_layout()
        rebuilt = Layout(
            [type(e)(e.layer_idx, e.key, e.shape, e.offset, e.size)
             for e in layout.entries])
        assert rebuilt != layout
        assert rebuilt.num_trainable > layout.num_trainable
        with pytest.raises(ValueError):
            model.set_store(WeightStore(rebuilt, model.weights.buffer))
