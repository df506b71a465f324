"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.divergence import (
    jensen_shannon_divergence,
    js_divergence_from_samples,
)
from repro.fl.aggregation import fedavg, sum_updates
from repro.nn.store import WeightStore
from repro.privacy.attacks.metrics import attack_auc, roc_auc
from repro.privacy.defenses.ldp import clip_store

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

finite_floats = st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False)


@st.composite
def weight_structures(draw):
    """Random stores: 1-3 layers, each with 1-2 small arrays."""
    num_layers = draw(st.integers(1, 3))
    structure = []
    for _ in range(num_layers):
        layer = {}
        for key in draw(st.sampled_from([["W"], ["W", "b"]])):
            rows = draw(st.integers(1, 4))
            cols = draw(st.integers(1, 4))
            values = draw(st.lists(finite_floats,
                                   min_size=rows * cols,
                                   max_size=rows * cols))
            layer[key] = np.array(values).reshape(rows, cols)
        structure.append(layer)
    return WeightStore.from_layers(structure)


@st.composite
def pmfs(draw):
    raw = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                        min_size=2, max_size=20))
    values = np.array(raw)
    return values / values.sum()


# ----------------------------------------------------------------------
# FedAvg
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(weight_structures(), st.integers(1, 5))
def test_fedavg_of_identical_updates_is_identity(weights, n_clients):
    out = fedavg([weights] * n_clients, [10] * n_clients)
    assert out.allclose(weights, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(weight_structures(), st.integers(1, 100), st.integers(1, 100))
def test_fedavg_is_convex_combination(weights, n_a, n_b):
    """The average of w and 2w lies between them coordinate-wise."""
    double = weights * 2.0
    out = fedavg([weights, double], [n_a, n_b])
    low = np.minimum(weights.buffer, double.buffer)
    high = np.maximum(weights.buffer, double.buffer)
    assert np.all(out.buffer >= low - 1e-9)
    assert np.all(out.buffer <= high + 1e-9)


@settings(max_examples=40, deadline=None)
@given(weight_structures(), st.integers(2, 5))
def test_sum_scale_matches_fedavg_equal_counts(weights, n_clients):
    """The secure-aggregation server computation reproduces FedAvg."""
    updates = [weights] * n_clients
    pre_weighted = [u * 7 for u in updates]
    via_sum = sum_updates(pre_weighted) * (1.0 / (7 * n_clients))
    via_avg = fedavg(updates, [7] * n_clients)
    assert via_sum.allclose(via_avg, atol=1e-9)


# ----------------------------------------------------------------------
# clipping
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(weight_structures(), st.floats(min_value=0.01, max_value=50,
                                      allow_nan=False))
def test_clip_never_exceeds_bound(weights, bound):
    clipped = clip_store(weights, bound)
    assert clipped.l2() <= bound * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(weight_structures(), st.floats(min_value=0.01, max_value=50,
                                      allow_nan=False))
def test_clip_is_idempotent(weights, bound):
    once = clip_store(weights, bound)
    twice = clip_store(once, bound)
    assert once.allclose(twice, atol=1e-12)


# ----------------------------------------------------------------------
# divergence
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(pmfs(), pmfs())
def test_js_symmetric_and_bounded(p, q):
    if p.shape != q.shape:
        return
    a = jensen_shannon_divergence(p, q)
    b = jensen_shannon_divergence(q, p)
    assert math.isclose(a, b, abs_tol=1e-9)
    assert -1e-12 <= a <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(finite_floats, min_size=5, max_size=100))
def test_js_of_sample_with_itself_is_zero(values):
    samples = np.array(values)
    assert js_divergence_from_samples(samples, samples) < 1e-9


# ----------------------------------------------------------------------
# AUC
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=50),
       st.lists(finite_floats, min_size=1, max_size=50))
def test_roc_auc_complement(pos, neg):
    """Swapping populations complements the AUC."""
    p = np.array(pos)
    n = np.array(neg)
    assert math.isclose(roc_auc(p, n), 1.0 - roc_auc(n, p),
                        abs_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=50),
       st.lists(finite_floats, min_size=1, max_size=50))
def test_attack_auc_range(pos, neg):
    value = attack_auc(np.array(pos), np.array(neg))
    assert 0.5 <= value <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=50),
       st.sampled_from([0.5, 1.0, 2.0, 4.0]),
       st.integers(-5, 5))
def test_roc_auc_invariant_to_monotone_transform(scores, scale, shift):
    """AUC is rank-based: positive affine transforms don't change it.

    Scores and transforms are restricted to exactly-representable
    floats so the transform cannot create or destroy ties.
    """
    values = np.array(scores, dtype=np.float64)
    half = len(values) // 2
    pos, neg = values[:half], values[half:]
    if pos.size == 0 or neg.size == 0:
        return
    base = roc_auc(pos, neg)
    transformed = roc_auc(pos * scale + shift, neg * scale + shift)
    assert math.isclose(base, transformed, abs_tol=1e-9)
