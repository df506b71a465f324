"""Bitwise parity: flat-plane training vs the legacy dict-plane loops.

Each test trains two identically seeded models side by side — one with
the flat-plane implementation under ``src/``, one with the dict-plane
reference reproduced *verbatim* below (the per-``(layer, key)`` loops
the refactor replaced) — and requires the resulting weight buffers to
be bit-for-bit equal.  Unlike the fixture-based trajectory pins, these
comparisons run both planes in the same process on the same BLAS, so
``np.array_equal`` holds exactly with no ULP concession.

The legacy loops run fine on the new view-backed ``params``/``grads``
dicts because they only read arrays and update them in place.
"""

import math

import numpy as np
import pytest

from repro.data.loader import iterate_batches
from repro.fl.client import add_proximal_term
from repro.nn.activations import Tanh
from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import make_optimizer
from repro.privacy.defenses.dpsgd import DPSGD

STEPS = 8


def _make_model():
    rng = np.random.default_rng(3)
    return Model([Dense(10, 16, rng), BatchNorm1d(16), Tanh(),
                  Dense(16, 4, rng)])


def _batches():
    rng = np.random.default_rng(7)
    protos = rng.standard_normal((4, 10)) * 3.0
    x = np.concatenate(
        [protos[c] + 0.5 * rng.standard_normal((32, 10))
         for c in range(4)])
    y = np.repeat(np.arange(4), 32)
    return list(iterate_batches(x, y, 32, np.random.default_rng(9)))


# ----------------------------------------------------------------------
# dict-plane reference implementations (pre-refactor optim.py, verbatim
# update rules, looping per (layer, key) with per-key optimizer state)
# ----------------------------------------------------------------------

class _LegacyOptimizer:
    def __init__(self, model, lr, **kwargs):
        self.model = model
        self.lr = lr
        self.state = {}
        self.steps = 0
        self.__dict__.update(kwargs)

    def step(self):
        self.steps += 1
        for idx, layer in enumerate(self.model.trainable):
            for key, param in layer.params.items():
                self._update(idx, key, param, layer.grads[key])


class _LegacySGD(_LegacyOptimizer):
    momentum = 0.0

    def _update(self, idx, key, param, grad):
        if self.momentum:
            buf = self.state.setdefault((idx, key), np.zeros_like(param))
            buf *= self.momentum
            buf += grad
            param -= self.lr * buf
        else:
            param -= self.lr * grad


class _LegacyAdagrad(_LegacyOptimizer):
    eps = 1e-5

    def _update(self, idx, key, param, grad):
        accum = self.state.setdefault((idx, key), np.zeros_like(param))
        accum += grad ** 2
        param -= self.lr * grad / np.sqrt(accum + self.eps)


class _LegacyRMSProp(_LegacyOptimizer):
    decay = 0.9
    eps = 1e-8

    def _update(self, idx, key, param, grad):
        accum = self.state.setdefault((idx, key), np.zeros_like(param))
        accum *= self.decay
        accum += (1.0 - self.decay) * grad ** 2
        param -= self.lr * grad / (np.sqrt(accum) + self.eps)


class _LegacyAdam(_LegacyOptimizer):
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def _update(self, idx, key, param, grad):
        m = self.state.setdefault((idx, key, "m"), np.zeros_like(param))
        v = self.state.setdefault((idx, key, "v"), np.zeros_like(param))
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad ** 2
        m_hat = m / (1.0 - self.beta1 ** self.steps)
        v_hat = v / (1.0 - self.beta2 ** self.steps)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _LegacyAdaMax(_LegacyOptimizer):
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def _update(self, idx, key, param, grad):
        m = self.state.setdefault((idx, key, "m"), np.zeros_like(param))
        u = self.state.setdefault((idx, key, "u"), np.zeros_like(param))
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        np.maximum(self.beta2 * u, np.abs(grad), out=u)
        m_hat = m / (1.0 - self.beta1 ** self.steps)
        param -= self.lr * m_hat / (u + self.eps)


class _LegacyADGD(_LegacyOptimizer):
    cap_factor = 2.0

    def __init__(self, model, lr, **kwargs):
        super().__init__(model, lr, **kwargs)
        self._cap = self.cap_factor * lr
        self._floor = lr / self.cap_factor
        self._lam = lr
        self._theta = float("inf")
        self._prev_params = None
        self._prev_grads = None

    def step(self):
        self.steps += 1
        params, grads = [], []
        for layer in self.model.trainable:
            for key in layer.params:
                params.append(layer.params[key])
                grads.append(layer.grads[key].copy())
        if self._prev_params is not None:
            dx = math.sqrt(sum(
                float(((p - q) ** 2).sum())
                for p, q in zip(params, self._prev_params)))
            dg = math.sqrt(sum(
                float(((g - h) ** 2).sum())
                for g, h in zip(grads, self._prev_grads)))
            candidate = math.sqrt(1.0 + self._theta) * self._lam
            if dg > 1e-12:
                candidate = min(candidate, dx / (2.0 * dg))
            candidate = min(max(candidate, self._floor), self._cap)
            self._theta = candidate / self._lam
            self._lam = candidate
        self._prev_params = [p.copy() for p in params]
        self._prev_grads = grads
        for param, grad in zip(params, grads):
            param -= self._lam * grad


class _LegacyDPSGD(_LegacyOptimizer):
    def __init__(self, model, lr, *, clip_norm, noise_multiplier, rng):
        super().__init__(model, lr)
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self.rng = rng
        self._last_batch_size = 1

    def notify_batch_size(self, batch_size):
        self._last_batch_size = max(1, int(batch_size))

    def step(self):
        self.steps += 1
        grads = []
        for layer in self.model.trainable:
            for key in layer.params:
                grads.append(layer.grads[key])
        total_sq = sum(float((g ** 2).sum()) for g in grads)
        norm = math.sqrt(total_sq)
        scale = min(1.0, self.clip_norm / max(norm, 1e-12))
        noise_std = (self.noise_multiplier * self.clip_norm
                     / self._last_batch_size)
        for layer in self.model.trainable:
            for key, param in layer.params.items():
                grad = layer.grads[key] * scale
                if noise_std > 0:
                    grad = grad + self.rng.normal(
                        0.0, noise_std, size=grad.shape)
                param -= self.lr * grad


def _legacy_add_proximal_term(model, mu, anchors):
    for layer, anchor in zip(model.trainable, anchors):
        for key, param in layer.params.items():
            layer.grads[key] += mu * (param - anchor[key])


_LEGACY = {
    "sgd": _LegacySGD,
    "adagrad": _LegacyAdagrad,
    "rmsprop": _LegacyRMSProp,
    "adam": _LegacyAdam,
    "adamax": _LegacyAdaMax,
    "adgd": _LegacyADGD,
}

_LRS = {"sgd": 0.1, "adagrad": 0.02, "adam": 0.01, "adamax": 0.01,
        "rmsprop": 0.005, "adgd": 0.05}


def _train(model, optimizer, *, mu=0.0, prox=None, notify=False):
    loss = SoftmaxCrossEntropy()
    anchor = None
    if mu > 0:
        anchor = prox(model)
    for bx, by in _batches() * 2:
        if notify:
            optimizer.notify_batch_size(len(bx))
        model.loss_and_grad(bx, by, loss)
        if mu > 0:
            if isinstance(anchor, np.ndarray):
                add_proximal_term(model, mu, anchor)
            else:
                _legacy_add_proximal_term(model, mu, anchor)
        optimizer.step()
    return model.weights.buffer


@pytest.mark.parametrize("name", sorted(_LEGACY))
def test_optimizer_matches_legacy_loop_bitwise(name):
    flat_model = _make_model()
    legacy_model = _make_model()
    flat = make_optimizer(name, flat_model, _LRS[name])
    legacy = _LEGACY[name](legacy_model, _LRS[name])
    assert np.array_equal(_train(flat_model, flat),
                          _train(legacy_model, legacy))


@pytest.mark.parametrize("momentum", [0.5, 0.9])
def test_sgd_momentum_matches_legacy_loop_bitwise(momentum):
    flat_model = _make_model()
    legacy_model = _make_model()
    flat = make_optimizer("sgd", flat_model, 0.1, momentum=momentum)
    legacy = _LegacySGD(legacy_model, 0.1, momentum=momentum)
    assert np.array_equal(_train(flat_model, flat),
                          _train(legacy_model, legacy))


def test_dpsgd_matches_legacy_loop_bitwise():
    """Clip norm, noise draws AND the consumed RNG stream must match."""
    flat_model = _make_model()
    legacy_model = _make_model()
    flat = DPSGD(flat_model, 0.05, clip_norm=0.5, noise_multiplier=1.1,
                 rng=np.random.default_rng(77))
    legacy = _LegacyDPSGD(legacy_model, 0.05, clip_norm=0.5,
                          noise_multiplier=1.1,
                          rng=np.random.default_rng(77))
    assert np.array_equal(_train(flat_model, flat, notify=True),
                          _train(legacy_model, legacy, notify=True))


def test_fedprox_matches_legacy_loop_bitwise():
    flat_model = _make_model()
    legacy_model = _make_model()
    flat = make_optimizer("sgd", flat_model, 0.05)
    legacy = _LegacySGD(legacy_model, 0.05)
    flat_final = _train(
        flat_model, flat, mu=0.1,
        prox=lambda m: m.weights.buffer.copy())
    legacy_final = _train(
        legacy_model, legacy, mu=0.1,
        prox=lambda m: [{k: v.copy() for k, v in layer.params.items()}
                        for layer in m.trainable])
    assert np.array_equal(flat_final, legacy_final)


def test_fedprox_never_touches_buffer_gradients():
    """Batch-norm running stats must keep exactly zero gradient even
    when the proximal pull ``mu * (w - anchor)`` is nonzero there."""
    model = _make_model()
    loss = SoftmaxCrossEntropy()
    bx, by = _batches()[0]
    anchor = model.weights.buffer.copy()
    model.loss_and_grad(bx, by, loss)  # moves the running stats
    add_proximal_term(model, 0.5, anchor)
    layout = model.weight_layout()
    mask = np.ones(layout.num_params, dtype=bool)
    for segment in layout.param_segments:
        mask[segment] = False
    assert mask.any()  # the model does have buffer coordinates
    assert np.all(model.grad_vector[mask] == 0.0)
