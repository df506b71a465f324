"""Unit tests for the flat-buffer weight plane (Layout + WeightStore)."""

import numpy as np
import pytest

from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.model import Model
from repro.nn.serialize import load_store, save_weights
from repro.nn.store import Layout, LayoutEntry, WeightStore


@pytest.fixture
def nested():
    return [
        {"W": np.arange(6.0).reshape(2, 3), "b": np.array([1.0, 2.0, 3.0])},
        {"W": np.full((3, 2), 0.5), "b": np.zeros(2)},
    ]


class TestLayout:
    def test_entries_follow_insertion_order(self, nested):
        layout = Layout.from_layers(nested)
        assert [(e.layer_idx, e.key) for e in layout.entries] == \
            [(0, "W"), (0, "b"), (1, "W"), (1, "b")]
        assert [e.offset for e in layout.entries] == [0, 6, 9, 15]
        assert layout.num_params == 17
        assert layout.num_layers == 2
        assert layout.nbytes == 17 * 8

    def test_layer_slice_covers_whole_layer(self, nested):
        layout = Layout.from_layers(nested)
        assert layout.layer_slice(0) == slice(0, 9)
        assert layout.layer_slice(1) == slice(9, 17)
        assert layout.layer_keys(1) == ("W", "b")

    def test_entry_lookup(self, nested):
        layout = Layout.from_layers(nested)
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

    def test_equality_and_hash(self, nested):
        a = Layout.from_layers(nested)
        b = Layout.from_layers(nested)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert a != Layout.from_layers(nested[:1])

    def test_matches_model_layout(self, tiny_model):
        from_model = tiny_model.weight_layout()
        from_weights = Layout.from_layers(
            [{**layer.params, **layer.buffers}
             for layer in tiny_model.trainable])
        assert from_model == from_weights


class TestBridges:
    def test_roundtrip_is_exact(self, nested):
        store = WeightStore.from_layers(nested)
        for idx, original in enumerate(nested):
            for key in original:
                assert np.array_equal(store.view(idx, key), original[key])
                assert store.view(idx, key).shape == original[key].shape

    def test_buffer_is_flatten_order(self, nested):
        store = WeightStore.from_layers(nested)
        assert np.array_equal(store.buffer, np.concatenate(
            [v.ravel() for layer in nested for v in layer.values()]))

    def test_from_layers_copies(self, nested):
        store = WeightStore.from_layers(nested)
        store.buffer[:] = -1.0
        assert nested[0]["W"][0, 0] == 0.0

    def test_shape_mismatch_is_rejected(self, nested):
        layout = Layout.from_layers(nested)
        bad = [{k: v.T.copy() for k, v in layer.items()}
               for layer in nested]
        with pytest.raises(ValueError):
            WeightStore.from_layers(bad, layout)


class TestViews:
    def test_view_is_writable_zero_copy(self, nested):
        store = WeightStore.from_layers(nested)
        store.view(0, "b")[:] = 9.0
        assert np.all(store.buffer[6:9] == 9.0)

    def test_layer_flat_aliases_buffer(self, nested):
        store = WeightStore.from_layers(nested)
        store.layer_flat(1)[:] = 7.0
        assert np.all(store.buffer[9:] == 7.0)
        assert np.all(store.buffer[:9] != 7.0)

    def test_readonly_vector(self, nested):
        vector = WeightStore.from_layers(nested).readonly_vector()
        with pytest.raises(ValueError):
            vector[0] = 1.0


class TestArithmetic:
    def test_add_sub_scale(self, nested):
        a = WeightStore.from_layers(nested)
        b = a * 2.0
        assert np.array_equal((b - a).buffer, a.buffer)
        assert np.array_equal((a + a).buffer, b.buffer)
        assert np.array_equal((b / 2.0).buffer, a.buffer)
        assert np.array_equal((-a).buffer, -a.buffer)
        assert np.array_equal((3.0 * a).buffer, (a * 3.0).buffer)

    def test_inplace_ops_keep_identity(self, nested):
        a = WeightStore.from_layers(nested)
        expected = a.buffer * 2.0 + a.buffer
        before = a
        a *= 2.0
        a += WeightStore.from_layers(nested)
        assert a is before
        assert np.array_equal(a.buffer, expected)

    def test_incompatible_layouts_raise(self, nested):
        a = WeightStore.from_layers(nested)
        b = WeightStore.from_layers(nested[:1])
        with pytest.raises(ValueError):
            a + b

    def test_l2_matches_numpy(self, nested):
        store = WeightStore.from_layers(nested)
        assert store.l2() == pytest.approx(
            float(np.linalg.norm(store.buffer)), abs=1e-12)

    def test_allclose_against_nested(self, nested):
        store = WeightStore.from_layers(nested)
        assert store.allclose(WeightStore.from_layers(nested), atol=0.0)
        perturbed = store.copy()
        perturbed.buffer[0] += 1.0
        assert not store.allclose(perturbed)

    def test_zeros_like(self, nested):
        zeros = WeightStore.from_layers(nested).zeros_like()
        assert np.all(zeros.buffer == 0.0)
        assert zeros.layout == Layout.from_layers(nested)


class TestModelStoreExchange:
    def test_get_set_store_roundtrip(self, tiny_model):
        store = tiny_model.get_store()
        store.buffer += 0.25
        tiny_model.set_store(store)
        again = tiny_model.get_store()
        assert np.array_equal(again.buffer, store.buffer)
        assert again.buffer is not store.buffer

    def test_set_store_rejects_foreign_layout(self, tiny_model, nested):
        with pytest.raises(ValueError):
            tiny_model.set_store(WeightStore.from_layers(nested))


class TestSerialization:
    def test_store_roundtrips_through_npz(self, tiny_model, tmp_path):
        store = tiny_model.get_store()
        save_weights(store, tmp_path / "w.npz")
        loaded = load_store(tmp_path / "w.npz")
        assert loaded.layout == store.layout
        assert np.array_equal(loaded.buffer, store.buffer)

    def test_load_onto_layout_keeps_it(self, rng, tmp_path):
        model = Model([Dense(4, 3, rng), BatchNorm1d(3)], rng=rng)
        save_weights(model.get_store(), tmp_path / "w.npz")
        layout = model.weight_layout()
        assert not all(e.trainable for e in layout.entries)
        loaded = load_store(tmp_path / "w.npz", layout)
        assert loaded.layout is layout
        assert np.array_equal(loaded.buffer, model.weights.buffer)

    def test_load_onto_other_layout_raises(self, tiny_model, nested,
                                           tmp_path):
        save_weights(WeightStore.from_layers(nested), tmp_path / "w.npz")
        with pytest.raises(ValueError, match="does not match"):
            load_store(tmp_path / "w.npz", tiny_model.weight_layout())
