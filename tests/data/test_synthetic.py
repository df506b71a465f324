"""Synthetic generator tests: shapes, determinism, noise semantics."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data import load_dataset, synthetic
from repro.data.synthetic import (
    Dataset,
    synthetic_audio,
    synthetic_images,
    synthetic_tabular,
)


class TestDataset:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((3, 2)), np.zeros(2, dtype=int), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((2, 2)), np.array([0, 5]), 2)

    def test_subset_copies(self, tiny_dataset):
        sub = tiny_dataset.subset(np.arange(10))
        sub.x[...] = 99.0
        assert not np.any(tiny_dataset.x[:10] == 99.0)

    def test_feature_shape(self, tiny_dataset):
        assert tiny_dataset.feature_shape == (20,)


class TestTabular:
    def test_shape_and_range(self, rng):
        ds = synthetic_tabular(rng, 100, 30, 5, noise=0.2)
        assert ds.x.shape == (100, 30)
        assert set(np.unique(ds.x)) <= {0.0, 1.0}
        assert ds.num_classes == 5

    def test_balanced_classes(self, rng):
        ds = synthetic_tabular(rng, 100, 30, 5)
        assert np.all(np.bincount(ds.y, minlength=5) == 20)

    def test_noise_controls_intra_class_distance(self, rng):
        low = synthetic_tabular(np.random.default_rng(1), 400, 50, 2,
                                noise=0.05)
        high = synthetic_tabular(np.random.default_rng(1), 400, 50, 2,
                                 noise=0.4)

        def mean_intra_class_distance(ds):
            dists = []
            for c in range(ds.num_classes):
                xc = ds.x[ds.y == c].astype(np.float64)
                dists.append(np.abs(xc[0] - xc[1:]).mean())
            return np.mean(dists)

        assert mean_intra_class_distance(low) \
            < mean_intra_class_distance(high)

    def test_continuous_mode(self, rng):
        ds = synthetic_tabular(rng, 50, 10, 3, binary=False, noise=0.1)
        assert len(set(np.unique(ds.x))) > 2

    def test_deterministic(self):
        a = synthetic_tabular(np.random.default_rng(3), 50, 10, 3)
        b = synthetic_tabular(np.random.default_rng(3), 50, 10, 3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            synthetic_tabular(rng, 10, 5, 1)

    def test_binary_bytes_pinned(self):
        # 500 rows of 600 features span two full draw blocks and a
        # partial third; the digests of the features, the labels and
        # the generator's next draw pin the stream layout
        rng = np.random.default_rng(3)
        ds = synthetic_tabular(rng, 500, 600, 10)
        assert ds.x.dtype == np.dtype(bool)
        digests = [hashlib.sha256(a.tobytes()).hexdigest()
                   for a in (ds.x, ds.y, rng.random(4))]
        assert digests == [
            "aa7436758ceee537b3317fe4d70b1853"
            "e69a47c4944c62679399fe336bfc794e",
            "289c396be7f4b66621ce68decbb9acb2"
            "7d07acbdd581bf411f928e044474a106",
            "5938a1a6a64603b0e369b68accbb9831"
            "db55abd2a566d8e4a0cf3060df582334",
        ]


class TestImages:
    def test_shape(self, rng):
        ds = synthetic_images(rng, 40, (3, 8, 8), 4)
        assert ds.x.shape == (40, 3, 8, 8)
        assert ds.data_type == "image"

    def test_rejects_indivisible_sides(self, rng):
        with pytest.raises(ValueError):
            synthetic_images(rng, 10, (3, 6, 6), 2)

    def test_prototypes_are_spatially_smooth(self, rng):
        """Low noise images have strong 4x4 block structure."""
        ds = synthetic_images(rng, 20, (1, 8, 8), 2, noise=0.01)
        img = ds.x[0, 0]
        block = img[:4, :4]
        assert np.abs(block - block[0, 0]).max() < 0.1


class TestAudio:
    def test_shape(self, rng):
        ds = synthetic_audio(rng, 30, 256, 6)
        assert ds.x.shape == (30, 1, 256)
        assert ds.data_type == "audio"

    def test_same_class_waveforms_correlate(self, rng):
        ds = synthetic_audio(rng, 200, 256, 4, noise=0.1)
        c0 = ds.x[ds.y == 0][:, 0, :]
        c1 = ds.x[ds.y == 1][:, 0, :]
        same = np.corrcoef(c0[0], c0[1])[0, 1]
        cross = np.corrcoef(c0[0], c1[0])[0, 1]
        assert same > cross

    def test_deterministic(self):
        a = synthetic_audio(np.random.default_rng(5), 20, 128, 3)
        b = synthetic_audio(np.random.default_rng(5), 20, 128, 3)
        assert np.array_equal(a.x, b.x)


class TestBlockNoise:
    """Noise is drawn in row blocks, bitwise equal to one full draw."""

    GENERATORS = {
        "tabular": lambda rng, dtype: synthetic_tabular(
            rng, 300, 50, 4, binary=False, dtype=dtype),
        "images": lambda rng, dtype: synthetic_images(
            rng, 40, (3, 8, 8), 4, dtype=dtype),
        "audio": lambda rng, dtype: synthetic_audio(
            rng, 70, 64, 4, dtype=dtype),
    }

    @staticmethod
    def _full_draw(rng, x, noise):
        # the oracle: one full-size perturbation array beside x
        x += noise * rng.standard_normal(x.shape)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_equals_full_size_draw(self, monkeypatch, kind, dtype):
        make = self.GENERATORS[kind]
        # 1000 elements split every generator into several blocks with
        # a ragged last block
        monkeypatch.setattr(synthetic, "_NOISE_BLOCK", 1000)
        rng = np.random.default_rng(7)
        blocked = make(rng, dtype)
        blocked_next = rng.random(4)
        monkeypatch.setattr(synthetic, "_add_noise", self._full_draw)
        rng = np.random.default_rng(7)
        full = make(rng, dtype)
        assert blocked.x.dtype == full.x.dtype == np.dtype(dtype)
        assert blocked.x.tobytes() == full.x.tobytes()
        assert blocked.y.tobytes() == full.y.tobytes()
        # the generator is left in the same state
        assert blocked_next.tobytes() == rng.random(4).tobytes()

    def test_load_peaks_near_the_feature_matrix(self):
        tracemalloc.start()
        try:
            ds = load_dataset("speech_commands", 0, n_samples=30000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a full-size perturbation array beside x peaks at about 2x
        assert peak < 1.3 * ds.x.nbytes
