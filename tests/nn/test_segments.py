"""Segment-plane unit tests: Segment + SegmentedView on Layout."""

import math
import pickle

import numpy as np
import pytest

from repro.nn.activations import ReLU, Tanh
from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.model import Model
from repro.nn.store import (
    Layout,
    LayoutEntry,
    SegmentedView,
    WeightStore,
    chunked_sq_sum,
)


def _buffer_only_layout() -> Layout:
    """Three layers; the middle one carries only non-trainable state."""
    return Layout([
        LayoutEntry(0, "W", (4,), 0, 4),
        LayoutEntry(1, "mean", (3,), 4, 3, trainable=False),
        LayoutEntry(1, "var", (3,), 7, 3, trainable=False),
        LayoutEntry(2, "W", (5,), 10, 5),
    ])


@pytest.fixture
def bn_model(rng) -> Model:
    """A model whose layout carries non-trainable buffers (batch norm
    running statistics) between trainable runs."""
    return Model([
        Dense(6, 5, rng), BatchNorm1d(5), Tanh(),
        Dense(5, 4, rng), ReLU(),
        Dense(4, 3, rng),
    ], name="bn")


@pytest.fixture
def view(bn_model) -> SegmentedView:
    return bn_model.segment_view()


def _vector(layout, rng):
    return rng.standard_normal(layout.num_params)


class TestConstruction:
    def test_named_from_model_layer_names(self, bn_model, view):
        assert view.names == tuple(bn_model.layer_names())
        assert len(view) == bn_model.weight_layout().num_layers

    def test_default_names_without_model(self, bn_model):
        layout = bn_model.weight_layout()
        anon = layout.segmented()
        assert anon.names == tuple(
            f"layer{i}" for i in range(layout.num_layers))

    def test_cached_on_layout(self, bn_model):
        layout = bn_model.weight_layout()
        assert layout.segmented() is layout.segmented()
        names = tuple(bn_model.layer_names())
        assert layout.segmented(names) is layout.segmented(names)
        assert layout.segmented(names) is not layout.segmented()
        assert bn_model.segment_view() is bn_model.segment_view()

    def test_rejects_wrong_name_count(self, bn_model):
        with pytest.raises(ValueError, match="segment names"):
            SegmentedView(bn_model.weight_layout(), ["a", "b"])

    def test_segments_partition_the_buffer(self, view):
        stops = [seg.full for seg in view]
        assert stops[0].start == 0
        assert stops[-1].stop == view.layout.num_params
        for a, b in zip(stops, stops[1:]):
            assert a.stop == b.start

    def test_buffer_only_segment_has_no_params(self):
        seg = _buffer_only_layout().segmented()[1]
        assert not seg.has_params
        assert seg.num_params == 0
        assert seg.entry_slices == ()
        assert seg.full == slice(4, 10)

    def test_num_params_sums_to_trainable(self, view):
        assert sum(seg.num_params for seg in view) \
            == view.layout.num_trainable

    def test_runs_and_entry_slices_mirror_layout(self, view):
        assert view.runs == view.layout.param_segments
        assert view.entry_slices == view.layout.param_entry_slices


class TestResolve:
    def test_by_index_name_negative_and_segment(self, view):
        seg = view.segments[0]
        assert view.resolve(0) is seg
        assert view.resolve(seg.name) is seg
        assert view.resolve(-len(view)) is seg
        assert view.resolve(seg) is seg
        assert view[seg.name] is seg

    def test_unknown_name_and_out_of_range(self, view):
        with pytest.raises(KeyError, match="no segment named"):
            view.resolve("nope")
        with pytest.raises(IndexError):
            view.resolve(len(view))

    def test_duplicate_names_are_ambiguous(self, bn_model):
        layout = bn_model.weight_layout()
        dup = SegmentedView(layout, ["x"] * layout.num_layers)
        assert dup.names == ("x",) * layout.num_layers
        with pytest.raises(KeyError, match="ambiguous"):
            dup.resolve("x")
        assert dup.resolve(1) is dup.segments[1]


class TestViews:
    def test_view_is_zero_copy(self, view, rng):
        vec = _vector(view.layout, rng)
        seg = next(s for s in view if s.has_params)
        window = view.view(vec, seg)
        window[:] = 7.0
        assert np.all(vec[seg.params] == 7.0)

    def test_full_view_covers_buffers(self, view, rng):
        vec = _vector(view.layout, rng)
        bn = next(s for s in view
                  if (s.full.stop - s.full.start) > s.num_params)
        assert view.full_view(vec, bn).size > view.view(vec, bn).size

    def test_batch_views_rows(self, view, rng):
        matrix = rng.standard_normal((3, view.layout.num_params))
        seg = next(s for s in view if s.has_params)
        block = view.batch(matrix, seg)
        assert block.base is matrix
        assert block.shape == (3, seg.num_params)
        np.testing.assert_array_equal(block[1], matrix[1][seg.params])

    def test_batch_validates_shape(self, view, rng):
        seg = next(s for s in view if s.has_params)
        with pytest.raises(ValueError, match="batch shape"):
            view.batch(rng.standard_normal(view.layout.num_params), seg)
        with pytest.raises(ValueError, match="batch shape"):
            view.batch(rng.standard_normal((2, 3)), seg)


class TestNorms:
    def test_sq_sum_matches_legacy_fold(self, view, rng):
        vec = _vector(view.layout, rng)
        assert view.sq_sum(vec) == chunked_sq_sum(
            vec, view.layout.param_entry_slices)

    def test_segment_sq_sums_fold_to_whole(self, view, rng):
        vec = _vector(view.layout, rng)
        per_seg = view.segment_sq_sums(vec)
        assert per_seg.shape == (len(view),)
        # Same chunks in the same order: bitwise, not just close.
        assert math.fsum(per_seg) == pytest.approx(view.sq_sum(vec))
        for seg in view:
            assert per_seg[seg.index] == chunked_sq_sum(
                vec, seg.entry_slices)

    def test_paramless_segment_reads_zero(self, rng):
        anon = _buffer_only_layout().segmented()
        per_seg = anon.segment_sq_sums(
            rng.standard_normal(anon.layout.num_params))
        assert per_seg[1] == 0.0
        assert per_seg[0] > 0.0 and per_seg[2] > 0.0


class TestMask:
    def test_include_exclude_are_complements(self, view):
        inc = view.mask(include=[0, 3])
        exc = view.mask(exclude=[0, 3])
        np.testing.assert_array_equal(inc, ~exc)

    def test_trainable_mask_counts_params(self, view):
        for seg in view:
            assert view.mask(include=[seg.index]).sum() == seg.num_params

    def test_full_mask_covers_buffers(self, view):
        bn = next(s for s in view
                  if (s.full.stop - s.full.start) > s.num_params)
        trainable = view.mask(include=[bn.index])
        full = view.mask(include=[bn.index], full=True)
        assert full.sum() == bn.full.stop - bn.full.start
        assert full.sum() > trainable.sum()

    def test_by_name(self, view):
        seg = next(s for s in view if s.has_params)
        np.testing.assert_array_equal(
            view.mask(include=[seg.name]),
            view.mask(include=[seg.index]))

    def test_requires_exactly_one_side(self, view):
        with pytest.raises(ValueError, match="exactly one"):
            view.mask()
        with pytest.raises(ValueError, match="exactly one"):
            view.mask(include=[0], exclude=[1])


class TestPrimitives:
    def test_add_gaussian_matches_legacy_loop(self, view, rng):
        from repro.nn.dtypes import gaussian
        vec = _vector(view.layout, rng)
        mine, legacy = vec.copy(), vec.copy()
        view.add_gaussian(mine, np.random.default_rng(3), 0.5)
        g = np.random.default_rng(3)
        for run in view.layout.param_segments:
            legacy[run] += gaussian(g, 0.5, run.stop - run.start,
                                    legacy.dtype)
        np.testing.assert_array_equal(mine, legacy)

    def test_segment_add_gaussian_touches_only_segment(self, view, rng):
        vec = _vector(view.layout, rng)
        before = vec.copy()
        seg = next(s for s in view if s.has_params)
        view.segment_add_gaussian(vec, seg, np.random.default_rng(4), 1.0)
        changed = vec != before
        inside = view.mask(include=[seg.index])
        assert changed.any()
        assert not changed[~inside].any()

    def test_scale_segment(self, view, rng):
        vec = _vector(view.layout, rng)
        before = vec.copy()
        seg = next(s for s in view if s.has_params)
        view.scale_segment(vec, seg, 2.0)
        inside = view.mask(include=[seg.index])
        np.testing.assert_array_equal(vec[inside], 2.0 * before[inside])
        np.testing.assert_array_equal(vec[~inside], before[~inside])

    def test_add_scaled_difference_matches_loop(self, view, rng):
        a = _vector(view.layout, rng)
        b = _vector(view.layout, rng)
        mine = np.zeros(view.layout.num_params)
        legacy = np.zeros(view.layout.num_params)
        view.add_scaled_difference(mine, 0.3, a, b)
        for run in view.layout.param_segments:
            legacy[run] += 0.3 * (a[run] - b[run])
        np.testing.assert_array_equal(mine, legacy)
        # Non-trainable coordinates stay exactly zero.
        trainable = np.zeros(view.layout.num_params, dtype=bool)
        for run in view.layout.param_segments:
            trainable[run] = True
        assert not mine[~trainable].any()

    def test_clip_semantics(self, view, rng):
        store = WeightStore(view.layout,
                            rng.standard_normal(view.layout.num_params))
        clipped = view.clip(store, 0.5)
        assert clipped.l2() == pytest.approx(0.5)
        assert clipped is not store
        loose = view.clip(store, 1e9)
        np.testing.assert_array_equal(loose.buffer, store.buffer)
        assert loose is not store  # a copy, matching legacy clip_store
        with pytest.raises(ValueError, match="max_norm"):
            view.clip(store, 0.0)

    def test_top_k_matches_legacy_argpartition(self, view, rng):
        vec = _vector(view.layout, rng)
        k = 17
        mine = view.top_k_indices(vec, k)
        legacy = np.argpartition(np.abs(vec),
                                 vec.size - k)[vec.size - k:]
        np.testing.assert_array_equal(mine, legacy)
        with pytest.raises(ValueError, match="k must be"):
            view.top_k_indices(vec, 0)
        with pytest.raises(ValueError, match="k must be"):
            view.top_k_indices(vec, vec.size + 1)

    def test_segment_top_k_is_absolute_and_inside(self, view, rng):
        vec = _vector(view.layout, rng)
        seg = next(s for s in view if s.has_params)
        idx = view.segment_top_k_indices(vec, seg, 3)
        assert len(idx) == 3
        assert all(seg.params.start <= i < seg.params.stop for i in idx)
        kept = np.sort(np.abs(vec[idx]))
        block = np.sort(np.abs(vec[seg.params]))
        np.testing.assert_array_equal(kept, block[-3:])


class TestLayoutPickle:
    def test_round_trip_preserves_equality(self, bn_model):
        layout = bn_model.weight_layout()
        clone = pickle.loads(pickle.dumps(layout))
        assert clone == layout
        assert clone.param_segments == layout.param_segments
        assert clone.param_entry_slices == layout.param_entry_slices
        assert clone.dtype == layout.dtype

    def test_segmented_cache_does_not_travel(self, bn_model):
        layout = bn_model.weight_layout()
        layout.segmented()  # populate the cache
        clone = pickle.loads(pickle.dumps(layout))
        assert clone._segmented == {}
        # ... and rebuilds fine on the far side.
        assert clone.segmented().names == layout.segmented().names
