"""Simulation checkpointing.

Long federated runs (the paper's Purchase100 uses 300 rounds) need to
survive interruption. A checkpoint captures the server's global model,
every client's personalized weights and DINAR's stored private layers;
restoring reproduces the simulation's observable state so training can
continue round-by-round.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.fl.simulation import FederatedSimulation
from repro.nn.serialize import load_store, save_weights
from repro.nn.store import Layout


def save_checkpoint(simulation: FederatedSimulation,
                    directory: str | pathlib.Path) -> pathlib.Path:
    """Write the simulation's resumable state into a directory."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    global_weights = simulation.server.global_weights
    save_weights(global_weights, directory / "global.npz")
    meta = {
        "rounds_completed": len(simulation.history.records),
        "dtype": global_weights.layout.dtype.name,
        "clients": [],
    }
    # Personalized weights live in the flat registry, not on live
    # client objects — save straight from its rows (zero-copy views),
    # keeping the on-disk format of the eager plane.
    trained = set(simulation.registry.client_ids())
    for client_id in range(simulation.config.num_clients):
        entry = {"client_id": client_id,
                 "has_personal": client_id in trained}
        if client_id in trained:
            save_weights(simulation.registry.get(client_id),
                         directory / f"client{client_id}.npz")
        meta["clients"].append(entry)
    stored = getattr(simulation.defense, "_stored", None)
    if stored:
        # DINAR keeps each protected layer as one flat vector: the
        # layer's coordinate range, saved under its layer index.
        for client_id, layers in stored.items():
            np.savez(directory / f"dinar{client_id}.npz",
                     **{f"layer{idx}": flat for idx, flat in layers.items()})
        meta["dinar_clients"] = sorted(stored)
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return directory


def load_checkpoint(simulation: FederatedSimulation,
                    directory: str | pathlib.Path) -> dict:
    """Restore a simulation's state from :func:`save_checkpoint`.

    The simulation must have been constructed with the same split,
    model factory and config. Every archive is read and checked
    against the simulation's layout before anything is restored: a
    checkpoint of another architecture raises ``ValueError`` naming
    both layouts and leaves the simulation unchanged. Returns the
    checkpoint metadata.
    """
    directory = pathlib.Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    layout = simulation.server.global_weights.layout
    saved = meta.get("dtype")
    if saved is not None and np.dtype(saved) != layout.dtype:
        raise ValueError(
            f"checkpoint was written at dtype {saved} but the "
            f"simulation computes in {layout.dtype.name}; rebuild the "
            f"simulation with a matching FLConfig.dtype")
    global_weights = load_store(directory / "global.npz", layout)
    personal = {
        int(entry["client_id"]): load_store(
            directory / f"client{entry['client_id']}.npz", layout)
        for entry in meta["clients"] if entry["has_personal"]
    }
    stored = {
        int(client_id): _load_protected(
            directory / f"dinar{client_id}.npz", layout)
        for client_id in meta.get("dinar_clients", [])
    }
    simulation.server.global_weights = global_weights
    for client_id, store in personal.items():
        simulation.registry.put(client_id, store.buffer)
    if stored:
        simulation.defense._stored.update(stored)
    return meta


def _load_protected(path: pathlib.Path,
                    layout: Layout) -> dict[int, np.ndarray]:
    """DINAR's stored layers for one client, checked against
    ``layout``: each is the flat coordinate range of its layer."""
    with np.load(path) as archive:
        layers = {int(name.removeprefix("layer")): archive[name]
                  for name in archive.files}
    for idx, flat in layers.items():
        if not 0 <= idx < layout.num_layers:
            raise ValueError(
                f"{path}: stored layer {idx} does not exist in {layout}")
        span = layout.layer_slice(idx)
        if flat.shape != (span.stop - span.start,) \
                or flat.dtype != layout.dtype:
            raise ValueError(
                f"{path}: stored layer {idx} has shape {flat.shape} "
                f"and dtype {flat.dtype}, but layer {idx} of {layout} "
                f"spans {span.stop - span.start} coordinates")
    return layers
