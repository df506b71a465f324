"""Aggregation rule tests: FedAvg weighting, robust variants."""

import numpy as np
import pytest

from repro.fl.aggregation import (
    coordinate_median,
    fedavg,
    sum_updates,
    trimmed_mean,
)
from repro.nn.store import WeightStore


def _weights(value, shape=(2, 2)):
    return WeightStore.from_layers(
        [{"W": np.full(shape, float(value)), "b": np.zeros(2)}])


class TestFedAvg:
    def test_equal_weights_is_mean(self):
        out = fedavg([_weights(1), _weights(3)], [10, 10])
        assert np.allclose(out.view(0, "W"), 2.0)

    def test_sample_count_weighting(self):
        out = fedavg([_weights(0), _weights(4)], [30, 10])
        assert np.allclose(out.view(0, "W"), 1.0)  # (0*3 + 4*1) / 4

    def test_single_client_identity(self):
        update = _weights(7)
        out = fedavg([update], [5])
        assert np.allclose(out.view(0, "W"), update.view(0, "W"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fedavg([], [])

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            fedavg([_weights(1)], [1, 2])

    def test_rejects_zero_total_samples(self):
        with pytest.raises(ValueError):
            fedavg([_weights(1)], [0])

    def test_does_not_mutate_inputs(self):
        a, b = _weights(1), _weights(3)
        fedavg([a, b], [1, 1])
        assert np.all(a.view(0, "W") == 1.0)


class TestSumAndScale:
    def test_sum(self):
        out = sum_updates([_weights(1), _weights(2), _weights(3)])
        assert np.allclose(out.view(0, "W"), 6.0)

    def test_scale(self):
        out = _weights(4) * 0.25
        assert np.allclose(out.view(0, "W"), 1.0)

    def test_sum_then_scale_equals_fedavg_for_equal_counts(self):
        updates = [_weights(1), _weights(5)]
        direct = fedavg(updates, [3, 3])
        masked = sum_updates([u * 3 for u in updates]) * (1 / 6)
        assert np.allclose(direct.view(0, "W"), masked.view(0, "W"))


class TestRobustAggregation:
    def test_trimmed_mean_drops_outlier(self):
        updates = [_weights(1), _weights(1), _weights(1), _weights(1000)]
        out = trimmed_mean(updates, trim=1)
        assert np.allclose(out.view(0, "W"), 1.0)

    def test_trimmed_mean_rejects_overtrim(self):
        with pytest.raises(ValueError):
            trimmed_mean([_weights(1), _weights(2)], trim=1)

    def test_coordinate_median_resists_byzantine(self):
        updates = [_weights(2), _weights(2), _weights(-1e9)]
        out = coordinate_median(updates)
        assert np.allclose(out.view(0, "W"), 2.0)

    def test_median_of_even_count(self):
        out = coordinate_median([_weights(1), _weights(3)])
        assert np.allclose(out.view(0, "W"), 2.0)
