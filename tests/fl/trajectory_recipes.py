"""Deterministic training recipes shared by the trajectory pins.

Each recipe runs a short, fully seeded training trajectory through the
public API and returns one flat float64 vector summarizing the final
model state.  The golden fixture (``tests/fixtures/trajectory_pins.npz``)
was generated by ``tools/gen_trajectory_pins.py`` at the last commit of
the *dict-plane* training path — per-``(layer, key)`` optimizer loops,
dict-backed layer parameters — so re-running a recipe on the flat
parameter plane and comparing against the fixture pins the refactor to
the historical trajectories bitwise.

Recipes only use stable public entry points (model builders, optimizers,
``FederatedSimulation``), never plane internals, so they are valid under
either parameter-plane implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.sensitivity import layer_divergences
from repro.data.loader import iterate_batches
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn
from repro.nn.activations import Tanh
from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import make_optimizer, optimizer_names
from repro.privacy.defenses.dpsgd import DPSGD
from repro.privacy.defenses.make import make_defense_for_config

#: Per-optimizer learning rates keeping the short trajectories stable.
OPTIMIZER_LRS = {
    "sgd": 0.1, "adagrad": 0.02, "adam": 0.01,
    "adamax": 0.01, "rmsprop": 0.005, "adgd": 0.05,
}

#: Defense names pinned end-to-end (the paper's baselines + DINAR).
DEFENSE_NAMES = ("none", "dinar", "ldp", "wdp", "cdp", "gc", "sa")


def _blob_data(rng: np.random.Generator, n: int = 120, dim: int = 12,
               classes: int = 4) -> tuple[np.ndarray, np.ndarray]:
    protos = rng.standard_normal((classes, dim)) * 3.0
    per = n // classes
    x = np.concatenate([
        protos[c] + 0.5 * rng.standard_normal((per, dim))
        for c in range(classes)
    ])
    y = np.repeat(np.arange(classes), per)
    return x, y


def _bn_model(rng: np.random.Generator, in_dim: int,
              classes: int) -> Model:
    """A model with batch-norm buffers: the layout has non-trainable
    coordinates interleaved with the parameters, exercising the
    params-only masking of every training-plane operation."""
    return Model([
        Dense(in_dim, 16, rng), BatchNorm1d(16), Tanh(),
        Dense(16, classes, rng),
    ], name="bn-pin")


def optimizer_trajectory(name: str) -> np.ndarray:
    """Short supervised run with one optimizer on a batch-norm model."""
    data_rng = np.random.default_rng(11)
    x, y = _blob_data(data_rng)
    model = _bn_model(np.random.default_rng(5), 12, 4)
    optimizer = make_optimizer(name, model, OPTIMIZER_LRS[name])
    loss = SoftmaxCrossEntropy()
    batch_rng = np.random.default_rng(17)
    for _ in range(2):
        for bx, by in iterate_batches(x, y, 32, batch_rng):
            model.loss_and_grad(bx, by, loss)
            optimizer.step()
    return model.get_store().buffer


def dpsgd_trajectory() -> np.ndarray:
    """DP-SGD with clipping active and per-step Gaussian noise."""
    data_rng = np.random.default_rng(11)
    x, y = _blob_data(data_rng)
    model = _bn_model(np.random.default_rng(5), 12, 4)
    optimizer = DPSGD(model, 0.05, clip_norm=0.5, noise_multiplier=1.2,
                      rng=np.random.default_rng(23))
    loss = SoftmaxCrossEntropy()
    batch_rng = np.random.default_rng(17)
    for _ in range(2):
        for bx, by in iterate_batches(x, y, 32, batch_rng):
            optimizer.notify_batch_size(len(bx))
            model.loss_and_grad(bx, by, loss)
            optimizer.step()
    return model.get_store().buffer


def simulation_trajectory(defense_name: str, *, workers: int = 0,
                          optimizer: str = "sgd",
                          proximal_mu: float = 0.0,
                          batchnorm: bool = False,
                          max_materialized: int = 8) -> np.ndarray:
    """Final global + personalized weights of a tiny federated run."""
    rng = np.random.default_rng(0)
    data = synthetic_tabular(rng, 360, 20, 5, noise=0.3, name="pin")
    split = split_for_membership(data, rng)
    config = FLConfig(num_clients=3, rounds=2, local_epochs=1, lr=0.05,
                      batch_size=32, seed=0, eval_every=2,
                      optimizer=optimizer, proximal_mu=proximal_mu,
                      workers=workers,
                      max_materialized=max_materialized)
    defense = make_defense_for_config(defense_name, config)
    if batchnorm:
        factory = lambda r: _bn_model(r, 20, 5)
    else:
        factory = lambda r: build_fcnn(20, 5, r, hidden=(16,))
    sim = FederatedSimulation(split, factory, config, defense)
    sim.run()
    parts = [sim.server.global_weights.buffer]
    parts += [c.personal_weights.buffer for c in sim.clients]
    return np.concatenate(parts)


def sensitivity_trajectory() -> np.ndarray:
    """Per-layer gradient vectors + JS divergences of a warm model."""
    data_rng = np.random.default_rng(11)
    x, y = _blob_data(data_rng, n=160)
    model = _bn_model(np.random.default_rng(5), 12, 4)
    loss = SoftmaxCrossEntropy()
    optimizer = make_optimizer("adagrad", model, 0.02)
    batch_rng = np.random.default_rng(17)
    for bx, by in iterate_batches(x, y, 32, batch_rng):
        model.loss_and_grad(bx, by, loss)
        optimizer.step()
    vectors = model.per_layer_gradient_vectors(x[:32], y[:32], loss)
    sensitivity = layer_divergences(
        model, x[:80], y[:80], x[80:], y[80:],
        rng=np.random.default_rng(29), max_samples=32)
    return np.concatenate(vectors + [sensitivity.divergences])


def build_recipes() -> dict:
    """Name -> zero-argument callable for every pinned trajectory."""
    recipes: dict = {}
    for name in optimizer_names():
        recipes[f"optimizer/{name}"] = \
            lambda name=name: optimizer_trajectory(name)
    recipes["optimizer/dpsgd"] = dpsgd_trajectory
    for name in DEFENSE_NAMES:
        recipes[f"defense/{name}"] = \
            lambda name=name: simulation_trajectory(name)
    recipes["simulation/fedprox"] = \
        lambda: simulation_trajectory("none", proximal_mu=0.05)
    recipes["simulation/batchnorm-none"] = \
        lambda: simulation_trajectory("none", batchnorm=True)
    recipes["simulation/batchnorm-ldp"] = \
        lambda: simulation_trajectory("ldp", batchnorm=True)
    recipes["simulation/adgd"] = \
        lambda: simulation_trajectory("none", optimizer="adgd")
    recipes["sensitivity/gradient-pools"] = sensitivity_trajectory
    return recipes
