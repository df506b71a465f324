"""Preprocessing transform tests."""

import numpy as np
import pytest

from repro.data.transforms import MinMaxScaler, Standardizer


class TestStandardizer:
    def test_fitted_stats(self, rng):
        x = rng.standard_normal((200, 5)) * 3 + 7
        scaled = Standardizer().fit(x).transform(x)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-6)

    def test_inverse_roundtrip(self, rng):
        x = rng.standard_normal((50, 4)) * 2 + 1
        scaler = Standardizer().fit(x)
        assert np.allclose(scaler.inverse_transform(
            scaler.transform(x)), x)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            Standardizer().transform(np.zeros((2, 2)))

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            Standardizer().fit(np.zeros((0, 3)))

    def test_applies_train_statistics_to_test(self, rng):
        """The test pool is scaled with TRAIN statistics, not its own."""
        train = rng.standard_normal((100, 3))
        test = rng.standard_normal((100, 3)) + 10
        scaler = Standardizer().fit(train)
        scaled_test = scaler.transform(test)
        assert scaled_test.mean() > 5  # still shifted: fit on train only


class TestMinMaxScaler:
    def test_range(self, rng):
        x = rng.standard_normal((100, 4)) * 5
        scaled = MinMaxScaler().fit(x).transform(x)
        assert scaled.min() >= 0.0
        assert scaled.max() <= 1.0 + 1e-9

    def test_constant_feature_handled(self):
        x = np.ones((10, 2))
        scaled = MinMaxScaler().fit(x).transform(x)
        assert np.all(np.isfinite(scaled))

