"""Bitwise pins for the segment-plane migration.

Every consumer that moved off a hand-rolled ``param_segments`` loop
onto :class:`~repro.nn.store.SegmentedView` is pinned here against a
verbatim reimplementation of its legacy path — exact equality, no
tolerance.  The 19 golden trajectory pins cover the end-to-end
composition; these cover each migrated primitive in isolation so a
future segment-plane change that breaks one consumer fails with its
name on the test.
"""

import math

import numpy as np
import pytest

from repro.nn.activations import Tanh
from repro.nn.dtypes import gaussian
from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.store import WeightStore, chunked_sq_sum
from repro.privacy.defenses.dpsgd import DPSGD
from repro.privacy.defenses.ldp import clip_store


@pytest.fixture
def bn_model(rng) -> Model:
    """Trainable runs interrupted by batch-norm buffers — the layout
    shape the legacy loops were written against."""
    return Model([
        Dense(12, 10, rng), BatchNorm1d(10), Tanh(),
        Dense(10, 6, rng), Tanh(),
        Dense(6, 4, rng),
    ], name="bn")


def _batch(rng, n=16, d=12, k=4):
    return rng.standard_normal((n, d)), rng.integers(0, k, n)


def _legacy_dpsgd_step(model, lr, clip_norm, noise_multiplier,
                       batch_size, rng):
    """The pre-migration DPSGD.step body, verbatim."""
    params = model.weights.buffer
    grads = model.grad_vector
    layout = model.weight_layout()
    norm = math.sqrt(chunked_sq_sum(grads, layout.param_entry_slices))
    scale = min(1.0, clip_norm / max(norm, 1e-12))
    noise_std = noise_multiplier * clip_norm / batch_size
    update = grads * scale
    if noise_std > 0:
        for segment in layout.param_segments:
            update[segment] += gaussian(
                rng, noise_std, segment.stop - segment.start,
                update.dtype)
    params -= lr * update


def test_dpsgd_step_bitwise(bn_model, rng):
    x, y = _batch(rng)
    twin = bn_model.clone()
    loss = SoftmaxCrossEntropy()

    bn_model.loss_and_grad(x, y, loss)
    optimizer = DPSGD(bn_model, 0.1, clip_norm=0.5,
                      noise_multiplier=1.3,
                      rng=np.random.default_rng(11))
    optimizer.notify_batch_size(len(x))
    optimizer.step()

    twin.loss_and_grad(x, y, loss)
    _legacy_dpsgd_step(twin, 0.1, 0.5, 1.3, len(x),
                       np.random.default_rng(11))

    np.testing.assert_array_equal(bn_model.weights.buffer,
                                  twin.weights.buffer)


def test_dpsgd_noise_skips_buffers(bn_model, rng):
    x, y = _batch(rng)
    bn_model.loss_and_grad(x, y, SoftmaxCrossEntropy())
    before = bn_model.weights.buffer.copy()
    optimizer = DPSGD(bn_model, 1.0, clip_norm=1e-9,
                      noise_multiplier=100.0,
                      rng=np.random.default_rng(5))
    optimizer.step()
    layout = bn_model.weight_layout()
    trainable = np.zeros(layout.num_params, dtype=bool)
    for run in layout.param_segments:
        trainable[run] = True
    delta = bn_model.weights.buffer - before
    assert np.abs(delta[trainable]).max() > 0
    np.testing.assert_array_equal(delta[~trainable], 0.0)


def test_clip_store_bitwise(bn_model, rng):
    layout = bn_model.weight_layout()
    store = WeightStore(layout,
                        rng.standard_normal(layout.num_params))
    for max_norm in (0.25, 1e9):
        clipped = clip_store(store, max_norm)
        # Legacy body, verbatim.
        norm = store.l2()
        legacy = store.copy() if norm <= max_norm \
            else store * (max_norm / norm)
        np.testing.assert_array_equal(clipped.buffer, legacy.buffer)
    with pytest.raises(ValueError):
        clip_store(store, -1.0)


def test_gc_top_k_bitwise(bn_model, rng):
    layout = bn_model.weight_layout()
    flat = rng.standard_normal(layout.num_params)
    k = max(1, int(0.1 * flat.size))
    mine = layout.segmented().top_k_indices(flat, k)
    legacy = np.argpartition(np.abs(flat),
                             flat.size - k)[flat.size - k:]
    np.testing.assert_array_equal(mine, legacy)


def test_proximal_term_bitwise(bn_model, rng):
    from repro.fl.client import add_proximal_term
    x, y = _batch(rng)
    anchor = rng.standard_normal(
        bn_model.weight_layout().num_params)
    twin = bn_model.clone()

    bn_model.loss_and_grad(x, y, SoftmaxCrossEntropy())
    add_proximal_term(bn_model, 0.7, anchor)

    twin.loss_and_grad(x, y, SoftmaxCrossEntropy())
    params = twin.weights.buffer
    grads = twin.grad_vector
    for segment in twin.weight_layout().param_segments:
        grads[segment] += 0.7 * (params[segment] - anchor[segment])

    np.testing.assert_array_equal(bn_model.grad_vector,
                                  twin.grad_vector)


def test_per_layer_gradient_vectors_bitwise(bn_model, rng):
    x, y = _batch(rng)
    vectors = bn_model.per_layer_gradient_vectors(
        x, y, SoftmaxCrossEntropy(), copy=True)
    layout = bn_model.weight_layout()
    twin = bn_model.clone()
    twin.loss_and_grad(x, y, SoftmaxCrossEntropy())
    assert len(vectors) == layout.num_layers
    for idx, vector in enumerate(vectors):
        legacy = twin.grad_vector[layout.segmented()[idx].params]
        np.testing.assert_array_equal(vector, legacy)
