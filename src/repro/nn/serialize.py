"""Weight and experiment serialization.

A :class:`~repro.nn.store.WeightStore` round-trips through an ``.npz``
archive with one array per ``layer<idx>/<name>`` key, written straight
from the store's zero-copy views.  That lets a deployment checkpoint
global models between rounds, ship shadow models to an attacker
process, or archive the exact model a benchmark attacked.

Precision round-trips for free: ``.npz`` stores each array's dtype,
and :meth:`~repro.nn.store.Layout.from_layers` infers the flat plane's
dtype from the loaded arrays (float32 only when *every* array is
float32), so a float32 store reloads as a float32 store.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.nn.store import Layout, WeightStore


def save_weights(store: WeightStore, path: str | pathlib.Path) -> None:
    """Write a store to an ``.npz`` archive, one array per entry."""
    np.savez(path, **{
        f"layer{e.layer_idx}/{e.key}":
            store.buffer[e.offset:e.stop].reshape(e.shape)
        for e in store.layout.entries
    })


def load_store(path: str | pathlib.Path,
               layout: Layout | None = None) -> WeightStore:
    """Read an archive written by :func:`save_weights` into a store.

    With ``layout`` the archive must match it (same geometry and
    dtype), and the store is built on that layout object — which keeps
    its trainable flags, unlike one derived from the archive, where
    every entry reads as trainable.  A mismatch raises ``ValueError``
    naming both layouts.
    """
    with np.load(path) as archive:
        layers: dict[int, dict[str, np.ndarray]] = {}
        for name in archive.files:
            prefix, key = name.split("/", 1)
            idx = int(prefix.removeprefix("layer"))
            layers.setdefault(idx, {})[key] = archive[name]
    if sorted(layers) != list(range(len(layers))):
        raise ValueError(f"archive has non-contiguous layer indices: "
                         f"{sorted(layers)}")
    store = WeightStore.from_layers([layers[i] for i in range(len(layers))])
    if layout is None:
        return store
    if store.layout != layout:
        raise ValueError(
            f"{path}: archive layout {_describe(store.layout)} does not "
            f"match {_describe(layout)}")
    return WeightStore(layout, store.buffer)


def _describe(layout: Layout) -> str:
    """A layout's summary plus its entry shapes (two layouts can share
    the summary and still differ in geometry)."""
    return f"{layout!r} {[e.shape for e in layout.entries]}"


def experiment_result_to_dict(result) -> dict:
    """JSON-ready summary of an ExperimentResult (drops the simulation)."""
    costs = result.costs
    return {
        "dataset": result.dataset,
        "defense": result.defense,
        "attack": result.attack,
        "global_auc": result.global_auc,
        "local_auc": result.local_auc,
        "global_accuracy": result.global_accuracy,
        "client_accuracy": result.client_accuracy,
        "costs": {
            "train_seconds_per_round": costs.train_seconds_per_round,
            "aggregate_seconds_per_round":
                costs.aggregate_seconds_per_round,
            "defense_state_bytes": costs.defense_state_bytes,
        },
    }


def save_experiment_result(result, path: str | pathlib.Path) -> None:
    """Write an ExperimentResult summary as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(experiment_result_to_dict(result), indent=2) + "\n")
