"""Precision plane: no silent float64 upcasts under a float32 config.

The compute plane's contract (repro.nn.dtypes) is that every array a
model touches — activations, gradients, optimizer state, the flat
buffers themselves — carries the configured dtype end to end.  These
tests build each model family at float32 and assert the dtype survives
forward, backward, every optimizer's state, and the store round-trips;
plus float32 gradient checks with dtype-scaled tolerances and the
mixed-dtype guards.
"""

import math

import numpy as np
import pytest

from repro.models.audio import build_audio_m5
from repro.models.fcnn import build_fcnn
from repro.models.resnet import build_resnet_small
from repro.models.vgg import build_vgg_small
from repro.nn.dtypes import gaussian, resolve_dtype, standard_normal
from repro.nn.layers import BatchNorm1d, Conv2d, Dense, Flatten
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import make_optimizer, optimizer_names
from repro.nn.store import Layout, WeightStore
from repro.privacy.defenses.dpsgd import DPSGD
from tests.conftest import numeric_gradient_check

#: float32 gradient checks difference quotients at ~sqrt(eps_f32) and
#: tolerate relative error scaled accordingly (vs 1e-6 at float64).
F32_EPS = 1e-2
F32_TOL = 5e-2


def _families(dtype):
    rng = np.random.default_rng
    return {
        "fcnn": (build_fcnn(40, 5, rng(0), hidden=(16, 8), dtype=dtype),
                 (6, 40)),
        "vgg": (build_vgg_small((3, 8, 8), 5, rng(0), dtype=dtype),
                (4, 3, 8, 8)),
        "resnet": (build_resnet_small((3, 8, 8), 5, rng(0), channels=4,
                                      num_blocks=1, dtype=dtype),
                   (4, 3, 8, 8)),
        "audio": (build_audio_m5((1, 64), 5, rng(0), widths=(4, 8),
                                 dtype=dtype),
                  (4, 1, 64)),
    }


@pytest.mark.parametrize("family", ["fcnn", "vgg", "resnet", "audio"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_backward_preserve_dtype(family, dtype):
    model, x_shape = _families(dtype)[family]
    expected = np.dtype(dtype)
    assert model.dtype == expected
    assert model.weights.buffer.dtype == expected
    assert model.grad_vector.dtype == expected
    for layer in model.trainable:
        for value in list(layer.params.values()) \
                + list(layer.buffers.values()):
            assert value.dtype == expected

    rng = np.random.default_rng(1)
    x = rng.standard_normal(x_shape).astype(dtype)
    y = rng.integers(0, 5, x_shape[0])
    logits = model.forward(x, training=True)
    assert logits.dtype == expected

    model.loss_and_grad(x, y, SoftmaxCrossEntropy())
    assert model.grad_vector.dtype == expected
    for layer in model.trainable:
        for grad in layer.grads.values():
            assert grad.dtype == expected

    eval_logits = model.predict_logits(x, batch_size=2)
    assert eval_logits.dtype == expected
    assert eval_logits.shape == logits.shape


@pytest.mark.parametrize("name", optimizer_names())
def test_optimizer_state_stays_float32(name):
    model = build_fcnn(12, 4, np.random.default_rng(0), hidden=(8,),
                       dtype="float32")
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 12)).astype(np.float32)
    y = rng.integers(0, 4, 6)
    kwargs = {"momentum": 0.9} if name == "sgd" else {}
    optimizer = make_optimizer(name, model, 0.05, **kwargs)
    for _ in range(3):
        model.loss_and_grad(x, y, SoftmaxCrossEntropy())
        optimizer.step()
    assert model.weights.buffer.dtype == np.float32
    for key, slot in optimizer.state.items():
        assert slot.dtype == np.float32, f"{name} slot {key!r} upcast"
    assert np.all(np.isfinite(model.weights.buffer))


def test_dpsgd_noise_stays_float32():
    model = build_fcnn(12, 4, np.random.default_rng(0), hidden=(8,),
                       dtype="float32")
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 12)).astype(np.float32)
    y = rng.integers(0, 4, 6)
    optimizer = DPSGD(model, 0.05, clip_norm=1.0, noise_multiplier=0.5,
                      rng=np.random.default_rng(7))
    optimizer.notify_batch_size(6)
    model.loss_and_grad(x, y, SoftmaxCrossEntropy())
    optimizer.step()
    assert model.weights.buffer.dtype == np.float32
    assert np.all(np.isfinite(model.weights.buffer))


def test_float32_conv2d_gradient_check(rng):
    model = Model([Conv2d(2, 3, 3, rng, padding=1, dtype="float32"),
                   Flatten(),
                   Dense(3 * 6 * 6, 4, rng, dtype="float32")])
    x = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
    y = rng.integers(0, 4, 3)
    err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng,
                                 eps=F32_EPS)
    assert err < F32_TOL


def test_float32_batchnorm_gradient_check(rng):
    model = Model([Dense(10, 6, rng, dtype="float32"),
                   BatchNorm1d(6, dtype="float32"),
                   Dense(6, 3, rng, dtype="float32")])
    x = rng.standard_normal((8, 10)).astype(np.float32)
    y = rng.integers(0, 3, 8)
    loss = SoftmaxCrossEntropy()
    model.loss_and_grad(x, y, loss)
    analytic = {
        (i, k): layer.grads[k].copy()
        for i, layer in enumerate(model.trainable)
        for k in layer.params
    }
    # float32 loss values quantize at ~1e-7, so the central difference
    # carries ~1e-5 absolute noise — near-zero coordinates need an
    # absolute floor on top of the dtype-scaled relative tolerance.
    # batch-norm couples every sample, so the numeric side must run the
    # same training-mode forward the analytic pass used.
    for i, layer in enumerate(model.trainable):
        for key, param in layer.params.items():
            flat = param.ravel()
            for j in rng.choice(flat.size, size=min(4, flat.size),
                                replace=False):
                orig = flat[j]
                flat[j] = orig + F32_EPS
                up = loss.forward(model.forward(x, training=True), y,
                                  workspace=model.workspace)
                flat[j] = orig - F32_EPS
                down = loss.forward(model.forward(x, training=True), y,
                                    workspace=model.workspace)
                flat[j] = orig
                numeric = (up - down) / (2 * F32_EPS)
                value = analytic[(i, key)].ravel()[j]
                assert abs(numeric - value) <= \
                    F32_TOL * (abs(numeric) + abs(value)) + 2e-3, \
                    f"layer {i} {key}[{j}]: {numeric} vs {value}"


def test_set_store_rejects_mismatched_dtype():
    model = build_fcnn(12, 4, np.random.default_rng(0), hidden=(8,),
                       dtype="float32")
    other = build_fcnn(12, 4, np.random.default_rng(0), hidden=(8,),
                       dtype="float64")
    with pytest.raises(ValueError, match="layout"):
        model.set_store(other.get_store())
    # the float32 rendition of the same store loads fine
    model.set_store(WeightStore(model.weight_layout(),
                                other.get_store().buffer))


def test_from_model_rejects_mixed_dtypes(rng):
    model = Model.__new__(Model)  # bypass __init__'s _bind_flat
    model.layers = [Dense(4, 4, rng, dtype="float32"),
                    Dense(4, 2, rng, dtype="float64")]
    with pytest.raises(ValueError, match="mixes parameter dtypes"):
        Layout.from_model(model)


def test_layout_equality_includes_dtype(rng):
    f32 = build_fcnn(12, 4, np.random.default_rng(0), hidden=(8,),
                     dtype="float32").weight_layout()
    f64 = build_fcnn(12, 4, np.random.default_rng(0), hidden=(8,),
                     dtype="float64").weight_layout()
    assert f32 != f64
    assert f32 == Layout(f64.entries, dtype=np.float32)


def test_resolve_dtype_rejects_unsupported():
    assert resolve_dtype(None) == np.float64
    assert resolve_dtype("float32") == np.float32
    with pytest.raises(ValueError, match="unsupported"):
        resolve_dtype(np.int32)


def test_dtype_gated_draws_match_legacy_float64_bitwise():
    """The float64 helpers must consume the stream exactly as the
    pre-dtype code did — this is what keeps the trajectory pins valid."""
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(standard_normal(a, (5, 2), np.float64),
                          b.standard_normal((5, 2)))
    assert np.array_equal(gaussian(a, 0.7, 9, np.float64),
                          b.normal(0.0, 0.7, size=9))
    assert standard_normal(a, 4, np.float32).dtype == np.float32
    assert gaussian(a, 0.7, 4, np.float32).dtype == np.float32


def test_eval_forward_releases_caches(rng, ws):
    dense = Dense(6, 4, rng)
    conv = Conv2d(2, 3, 3, rng, padding=1)
    dense.forward(rng.standard_normal((5, 6)), training=False, workspace=ws)
    conv.forward(rng.standard_normal((2, 2, 6, 6)), training=False,
                 workspace=ws)
    assert dense._x is None
    assert conv._cols is None
    # training-mode forward still caches for backward
    dense.forward(rng.standard_normal((5, 6)), training=True, workspace=ws)
    assert dense._x is not None


def test_eval_backward_yields_input_gradient(rng):
    """Backward after an eval forward (the inversion attack's path)
    produces the input gradient without touching weight grads."""
    model = Model([Dense(6, 4, rng), Flatten(), Dense(4, 3, rng)])
    x = rng.standard_normal((5, 6))
    y = rng.integers(0, 3, 5)
    loss = SoftmaxCrossEntropy()
    # reference input gradient from a training-mode pass
    model.loss_and_grad(x, y, loss)
    logits = model.forward(x, training=True)
    loss.forward(logits, y, workspace=model.workspace)
    # the input gradient is an arena buffer the next backward refills
    ref = model.backward(loss.backward()).copy()
    # eval-mode pass: same statistics for this model, same input grad
    loss.forward(model.forward(x, training=False), y,
                 workspace=model.workspace)
    got = model.backward(loss.backward())
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_predict_logits_matches_concatenate(rng):
    model = build_fcnn(12, 4, np.random.default_rng(0), hidden=(8,))
    x = rng.standard_normal((23, 12))
    batched = model.predict_logits(x, batch_size=5)
    whole = model.forward(x, training=False).copy()
    assert batched.shape == (23, 4)
    np.testing.assert_array_equal(batched, whole)
    # chunk boundary exactness: batch that divides n evenly
    np.testing.assert_array_equal(
        model.predict_logits(x[:20], batch_size=5), whole[:20])


def test_float32_training_reduces_loss():
    model = build_fcnn(20, 4, np.random.default_rng(0), hidden=(16,),
                       dtype="float32")
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 20)).astype(np.float32)
    y = rng.integers(0, 4, 64)
    loss = SoftmaxCrossEntropy()
    optimizer = make_optimizer("adam", model, 0.01)
    first = model.loss_and_grad(x, y, loss)
    for _ in range(30):
        model.loss_and_grad(x, y, loss)
        optimizer.step()
    last = loss.forward(model.forward(x, training=False), y,
                        workspace=model.workspace)
    assert math.isfinite(last)
    assert last < first * 0.7
