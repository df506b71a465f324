"""Shared fixtures: tiny seeded datasets and models for fast tests."""

from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data.partition import MembershipSplit
from repro.data.synthetic import Dataset, synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.executor import round_rng
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn
from repro.nn.activations import ReLU, Tanh
from repro.nn.layers import Dense
from repro.nn.model import Model
from repro.nn.store import Layout, LayoutEntry, WeightStore
from repro.nn.workspace import Workspace
from repro.privacy.defenses.base import Defense


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def ws() -> Workspace:
    """A fresh scratch arena for standalone layer and loss calls."""
    return Workspace()


@pytest.fixture
def tiny_dataset(rng) -> Dataset:
    """120 samples, 20 features, 4 classes — separable but noisy."""
    return synthetic_tabular(rng, 120, 20, 4, noise=0.2, name="tiny")


@pytest.fixture
def tiny_model(rng) -> Model:
    """3 trainable layers over 20 features, 4 classes."""
    return Model([
        Dense(20, 16, rng), Tanh(),
        Dense(16, 8, rng), ReLU(),
        Dense(8, 4, rng),
    ], name="tiny")


@pytest.fixture
def tiny_model_factory():
    """Factory building fresh tiny models (3 trainable layers)."""
    def factory(rng: np.random.Generator) -> Model:
        return Model([
            Dense(20, 16, rng), Tanh(),
            Dense(16, 8, rng), ReLU(),
            Dense(8, 4, rng),
        ], name="tiny")
    return factory


@pytest.fixture
def small_fcnn_factory():
    """Factory for a small 4-hidden-layer FCNN (5 trainable layers)."""
    def factory(rng: np.random.Generator) -> Model:
        return build_fcnn(20, 4, rng, hidden=(16, 12, 8, 8))
    return factory


def numeric_gradient_check(model: Model, x: np.ndarray, y: np.ndarray,
                           loss, rng: np.random.Generator, *,
                           eps: float = 1e-5, samples_per_param: int = 4,
                           training_forward: bool = False) -> float:
    """Max relative error between analytic and numeric gradients."""
    model.loss_and_grad(x, y, loss)
    analytic = {
        (i, k): layer.grads[k].copy()
        for i, layer in enumerate(model.trainable)
        for k in layer.params
    }
    max_err = 0.0
    for i, layer in enumerate(model.trainable):
        for key, param in layer.params.items():
            flat = param.ravel()
            idxs = rng.choice(flat.size,
                              size=min(samples_per_param, flat.size),
                              replace=False)
            for j in idxs:
                orig = flat[j]
                flat[j] = orig + eps
                up = loss.forward(
                    model.forward(x, training=training_forward), y,
                    workspace=model.workspace)
                flat[j] = orig - eps
                down = loss.forward(
                    model.forward(x, training=training_forward), y,
                    workspace=model.workspace)
                flat[j] = orig
                numeric = (up - down) / (2 * eps)
                value = analytic[(i, key)].ravel()[j]
                denom = max(1e-8, abs(numeric) + abs(value))
                max_err = max(max_err, abs(numeric - value) / denom)
    return max_err


def flat_layout(num_params: int, dtype=np.float64) -> Layout:
    """A one-layer layout holding one vector ``W``."""
    return Layout([LayoutEntry(0, "W", (num_params,), 0, num_params)],
                  dtype=dtype)


def store_of(layers: Sequence[dict[str, np.ndarray]]) -> WeightStore:
    """A float64 store holding per-layer ``{key: array}`` mappings, in
    order, every entry trainable — the per-array form the legacy
    oracles and small fixtures are written in."""
    entries: list[LayoutEntry] = []
    for layer_idx, layer in enumerate(layers):
        for key, value in layer.items():
            offset = entries[-1].stop if entries else 0
            entries.append(LayoutEntry(layer_idx, key, np.shape(value),
                                       offset, int(np.size(value))))
    return WeightStore(Layout(entries), np.concatenate(
        [np.ravel(value) for layer in layers for value in layer.values()]))


def fedavg_reference(updates: Sequence[WeightStore],
                     num_samples: Sequence[int]) -> WeightStore:
    """The seed FedAvg: one Python multiply-then-add per named array.

    Reads each update through ``store.view(layer, key)``.  It is the
    oracle the property tests and the fleet benchmark hold
    :func:`repro.fl.aggregation.fedavg` and the streaming accumulator
    to, within 2 ULP (FMA contraction inside einsum).
    """
    if not updates:
        raise ValueError("cannot aggregate zero updates")
    if len(updates) != len(num_samples):
        raise ValueError(f"{len(updates)} updates vs "
                         f"{len(num_samples)} sample counts")
    total = float(sum(num_samples))
    if total <= 0:
        raise ValueError("total sample count must be positive")
    out = updates[0].zeros_like()
    for entry in out.layout.entries:
        out.view(entry.layer_idx, entry.key)[...] = sum(
            (n / total) * u.view(entry.layer_idx, entry.key)
            for u, n in zip(updates, num_samples))
    return out


def one_client_simulation(model_factory, config: FLConfig, data: Dataset,
                          defense: Defense | None = None
                          ) -> FederatedSimulation:
    """A simulation whose one client trains on every row of ``data``."""
    none = np.zeros(0, dtype=np.int64)
    split = MembershipSplit(data, np.arange(len(data)), none, none)
    return FederatedSimulation(split, model_factory, config, defense)


def train_client_round(simulation: FederatedSimulation,
                       round_index: int = 0, client_id: int = 0):
    """One round of the fleet's trainer, bound to ``client_id``, from
    the server's global weights; writes the client's registry rows as a
    round does, and returns the ``ClientRoundResult``."""
    registry, global_weights = simulation.registry, \
        simulation.server.global_weights
    for cid in registry.assign([client_id]):
        simulation.defense.init_state(registry.rows.state[
            registry.row(cid)], global_weights)
    row = registry.row(client_id)
    client = simulation.fleet.materialize(client_id)
    result = client.train_round(
        global_weights, round_index,
        rng=round_rng(simulation.config.seed, round_index, client_id),
        state=registry.rows.state[row])
    registry.rows.uploads[row] = result.update_buffer
    if registry.rows.personal is not None:
        registry.rows.personal[row] = result.personal_buffer
    return result


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this
    checkout's ``repro`` (for tests of what importing loads)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True,
                          check=True).stdout
