"""Loss function contracts: values, gradients, per-example views."""

import numpy as np

from repro.nn.losses import (
    SoftmaxCrossEntropy,
    log_softmax,
    softmax,
)


class TestSoftmaxHelpers:
    def test_log_softmax_matches_naive(self, rng):
        logits = rng.standard_normal((4, 6))
        naive = np.log(np.exp(logits)
                       / np.exp(logits).sum(axis=1, keepdims=True))
        assert np.allclose(log_softmax(logits), naive)

    def test_log_softmax_stable_for_large_logits(self):
        out = log_softmax(np.array([[1e4, 0.0]]))
        assert np.all(np.isfinite(out))

    def test_softmax_normalized(self, rng):
        assert np.allclose(
            softmax(rng.standard_normal((3, 7))).sum(axis=1), 1.0)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_classes(self, ws):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((5, 10)), np.zeros(5, dtype=int),
                             workspace=ws)
        assert np.isclose(value, np.log(10))

    def test_perfect_prediction_near_zero(self, ws):
        loss = SoftmaxCrossEntropy()
        logits = np.full((3, 4), -100.0)
        logits[np.arange(3), [0, 1, 2]] = 100.0
        assert loss.forward(logits, np.array([0, 1, 2]), workspace=ws) < 1e-6

    def test_backward_is_probs_minus_onehot(self, rng, ws):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((4, 5))
        y = np.array([0, 1, 2, 3])
        loss.forward(logits, y, workspace=ws)
        grad = loss.backward()
        probs = softmax(logits)
        expected = probs.copy()
        expected[np.arange(4), y] -= 1.0
        assert np.allclose(grad, expected / 4)

    def test_per_example_mean_matches_forward(self, rng, ws):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((6, 3))
        y = rng.integers(0, 3, 6)
        batch = loss.forward(logits, y, workspace=ws)
        per = loss.per_example(logits, y)
        assert per.shape == (6,)
        assert np.isclose(per.mean(), batch)

    def test_per_example_nonnegative(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((20, 5)) * 5
        y = rng.integers(0, 5, 20)
        assert np.all(loss.per_example(logits, y) >= 0)

