"""Classification metric tests."""

import numpy as np
import pytest

from repro.nn.metrics import accuracy


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_zero(self):
        assert accuracy(np.array([1, 2, 0]), np.array([0, 1, 2])) == 0.0

    def test_fractional(self):
        assert accuracy(np.array([0, 1, 0, 0]),
                        np.array([0, 1, 1, 1])) == 0.5

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), np.array([0, 1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

