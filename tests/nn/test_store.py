"""Unit tests for the flat-buffer weight plane (Layout + WeightStore)."""

import pickle

import numpy as np
import pytest

from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.model import Model
from repro.nn.store import Layout, LayoutEntry, WeightStore


@pytest.fixture
def layout():
    """Two layers, ``W`` then ``b`` each: 17 coordinates."""
    return Layout([
        LayoutEntry(0, "W", (2, 3), 0, 6),
        LayoutEntry(0, "b", (3,), 6, 3),
        LayoutEntry(1, "W", (3, 2), 9, 6),
        LayoutEntry(1, "b", (2,), 15, 2),
    ])


@pytest.fixture
def store(layout):
    return WeightStore(layout, np.concatenate([
        np.arange(6.0), [1.0, 2.0, 3.0], np.full(6, 0.5), np.zeros(2)]))


def _first_layer(layout):
    """``layout``'s layer 0 alone."""
    return Layout(layout.layer_entries(0))


class TestLayout:
    def test_entries_follow_insertion_order(self, rng):
        layout = Model([Dense(4, 3, rng), BatchNorm1d(3)]).weight_layout()
        assert [(e.layer_idx, e.key) for e in layout.entries] == [
            (0, "W"), (0, "b"), (1, "gamma"), (1, "beta"),
            (1, "running_mean"), (1, "running_var")]
        assert [e.offset for e in layout.entries] == [0, 12, 15, 18, 21, 24]
        assert [e.trainable for e in layout.entries] == [True] * 4 \
            + [False] * 2
        assert layout.num_params == 27
        assert layout.num_layers == 2
        assert layout.nbytes == 27 * 8

    def test_layer_slice_covers_whole_layer(self, layout):
        assert layout.layer_slice(0) == slice(0, 9)
        assert layout.layer_slice(1) == slice(9, 17)
        assert [e.key for e in layout.layer_entries(1)] == ["W", "b"]

    def test_entry_lookup(self, layout):
        entry = layout.entry(1, "W")
        assert (entry.offset, entry.stop, entry.shape) == (9, 15, (3, 2))
        with pytest.raises(KeyError):
            layout.entry(0, "missing")

    def test_rejects_gapped_offsets(self):
        with pytest.raises(ValueError):
            Layout([
                LayoutEntry(0, "W", (2,), 0, 2),
                LayoutEntry(0, "b", (2,), 3, 2),
            ])

    def test_rejects_non_contiguous_layers(self):
        with pytest.raises(ValueError):
            Layout([
                LayoutEntry(0, "W", (2,), 0, 2),
                LayoutEntry(2, "W", (2,), 2, 2),
            ])

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            Layout([
                LayoutEntry(0, "W", (2,), 0, 2),
                LayoutEntry(0, "W", (2,), 2, 2),
            ])

    def test_rejects_size_shape_mismatch(self):
        with pytest.raises(ValueError):
            Layout([LayoutEntry(0, "W", (2, 3), 0, 5)])

    def test_equality_and_hash(self, layout):
        twin = Layout(layout.entries)
        assert twin == layout and twin is not layout
        assert hash(twin) == hash(layout)
        assert layout != _first_layer(layout)

    def test_matches_model_layout(self, tiny_model, tiny_model_factory):
        """Two models of one architecture share a layout: equal and
        interchangeable for each other's stores."""
        twin = tiny_model_factory(np.random.default_rng(1))
        assert twin.weight_layout() == tiny_model.weight_layout()
        twin.set_store(tiny_model.get_store())
        assert np.array_equal(twin.weights.buffer,
                              tiny_model.weights.buffer)

    def test_pickle_round_trip(self, rng):
        layout = Model([Dense(6, 5, rng), BatchNorm1d(5),
                        Dense(5, 3, rng)]).weight_layout()
        clone = pickle.loads(pickle.dumps(layout))
        assert clone == layout
        assert clone.param_segments == layout.param_segments
        assert clone.param_entry_slices == layout.param_entry_slices
        assert clone.dtype == layout.dtype

    def test_layer_param_slices_on_buffer_only_layer(self):
        layout = Layout([
            LayoutEntry(0, "W", (4,), 0, 4),
            LayoutEntry(1, "mean", (3,), 4, 3, trainable=False),
            LayoutEntry(1, "var", (3,), 7, 3, trainable=False),
            LayoutEntry(2, "W", (5,), 10, 5),
            LayoutEntry(2, "b", (2,), 15, 2),
        ])
        assert layout.layer_param_slices(0) == (slice(0, 4),)
        assert layout.layer_param_slices(1) == ()
        assert layout.layer_param_slices(2) == (slice(10, 15),
                                                slice(15, 17))
        assert layout.layer_slice(1) == slice(4, 10)


class TestBridges:
    """A model's store holds its layers' arrays, in layout order."""

    def test_roundtrip_is_exact(self, tiny_model):
        store = tiny_model.get_store()
        for idx, layer in enumerate(tiny_model.trainable):
            for key, original in layer.params.items():
                assert np.array_equal(store.view(idx, key), original)
                assert store.view(idx, key).shape == original.shape

    def test_buffer_is_flatten_order(self, tiny_model):
        assert np.array_equal(tiny_model.get_store().buffer, np.concatenate(
            [v.ravel() for layer in tiny_model.trainable
             for v in layer.params.values()]))

    def test_shape_mismatch_is_rejected(self, layout):
        with pytest.raises(ValueError, match="17 params"):
            WeightStore(layout, np.zeros(16))
        with pytest.raises(ValueError, match="17 params"):
            WeightStore(layout, np.zeros((17, 1)))


class TestViews:
    def test_view_is_writable_zero_copy(self, store):
        store.view(0, "b")[:] = 9.0
        assert np.all(store.buffer[6:9] == 9.0)

    def test_layer_flat_aliases_buffer(self, store):
        store.layer_flat(1)[:] = 7.0
        assert np.all(store.buffer[9:] == 7.0)
        assert np.all(store.buffer[:9] != 7.0)


class TestArithmetic:
    def test_add_sub_scale(self, store):
        a = store
        b = a * 2.0
        assert np.array_equal((b - a).buffer, a.buffer)
        assert np.array_equal((a + a).buffer, b.buffer)
        assert np.array_equal((b / 2.0).buffer, a.buffer)
        assert np.array_equal((-a).buffer, -a.buffer)
        assert np.array_equal((3.0 * a).buffer, (a * 3.0).buffer)

    def test_inplace_ops_keep_identity(self, store):
        a = store.copy()
        expected = a.buffer * 2.0 + a.buffer
        before = a
        a *= 2.0
        a += store
        assert a is before
        assert np.array_equal(a.buffer, expected)

    def test_incompatible_layouts_raise(self, store):
        first = WeightStore(_first_layer(store.layout),
                            store.layer_flat(0).copy())
        with pytest.raises(ValueError):
            store + first

    def test_l2_matches_numpy(self, store):
        assert store.l2() == pytest.approx(
            float(np.linalg.norm(store.buffer)), abs=1e-12)

    def test_allclose_against_nested(self, store):
        assert store.allclose(
            WeightStore(Layout(store.layout.entries), store.buffer.copy()),
            atol=0.0)
        perturbed = store.copy()
        perturbed.buffer[0] += 1.0
        assert not store.allclose(perturbed)

    def test_zeros_like(self, store):
        zeros = store.zeros_like()
        assert np.all(zeros.buffer == 0.0)
        assert zeros.layout is store.layout


class TestModelStoreExchange:
    def test_get_set_store_roundtrip(self, tiny_model):
        store = tiny_model.get_store()
        store.buffer += 0.25
        tiny_model.set_store(store)
        again = tiny_model.get_store()
        assert np.array_equal(again.buffer, store.buffer)
        assert again.buffer is not store.buffer

    def test_set_store_rejects_foreign_layout(self, tiny_model, store):
        with pytest.raises(ValueError):
            tiny_model.set_store(store)
