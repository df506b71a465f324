"""Simulation checkpointing.

Long federated runs (the paper's Purchase100 uses 300 rounds) need to
survive interruption. A checkpoint captures the server's global model
and the client registry — every client's personalized weights, last
upload and defense state (DINAR's stored private layers, GC's
residual), each plane saved as one array with the row order — so a
restored simulation holds the same per-client state.  It also keeps
the server's own state: the generator state of ``FLServer.rng`` (it
draws the ``clients_per_round`` cohort and CDP's noise) in
``meta.json``, and FedAvgM's momentum buffer in ``server.npz``, so a
resumed run continues the uninterrupted trajectory bitwise.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.fl.simulation import FederatedSimulation
from repro.fl.virtual import RegistryRows
from repro.nn.serialize import load_store, save_weights
from repro.nn.store import Layout, WeightStore

#: The registry archive's arrays: the row order, then each plane.
_PLANES = ("ids",) + RegistryRows._fields


def save_checkpoint(simulation: FederatedSimulation,
                    directory: str | pathlib.Path) -> pathlib.Path:
    """Write the simulation's resumable state into a directory."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    server = simulation.server
    global_weights = server.global_weights
    save_weights(global_weights, directory / "global.npz")
    np.savez(directory / "registry.npz", **simulation.registry.planes())
    momentum = server.momentum_buffer
    np.savez(directory / "server.npz",
             **({} if momentum is None else {"momentum": momentum.buffer}))
    meta = {
        "rounds_completed": len(simulation.history.records),
        "dtype": global_weights.layout.dtype.name,
        "server_rng": server.rng.bit_generator.state,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return directory


def load_checkpoint(simulation: FederatedSimulation,
                    directory: str | pathlib.Path) -> dict:
    """Restore a simulation's state from :func:`save_checkpoint`.

    The simulation must have been constructed with the same split,
    model factory, config and defense. Every archive and the server's
    generator state are read and checked against the simulation
    before anything is restored: a checkpoint of another
    architecture, a truncated ``meta.json``, a malformed generator
    state or a missing array raises ``ValueError`` and leaves the
    simulation unchanged. Returns the checkpoint metadata.
    """
    directory = pathlib.Path(directory)
    try:
        meta = json.loads((directory / "meta.json").read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{directory / 'meta.json'} is not valid JSON (truncated "
            f"checkpoint?): {exc}") from exc
    layout = simulation.server.global_weights.layout
    saved = meta.get("dtype")
    if saved is not None and np.dtype(saved) != layout.dtype:
        raise ValueError(
            f"checkpoint was written at dtype {saved} but the "
            f"simulation computes in {layout.dtype.name}; rebuild the "
            f"simulation with a matching FLConfig.dtype")
    server = simulation.server
    rng_state = _checked_rng_state(meta, server.rng, directory)
    global_weights = load_store(directory / "global.npz", layout)
    planes = _load_planes(directory / "registry.npz", simulation)
    momentum = _load_momentum(directory / "server.npz", layout)
    server.global_weights = global_weights
    simulation.registry.restore(planes)
    server.rng.bit_generator.state = rng_state
    server.momentum_buffer = momentum
    return meta


def _checked_rng_state(meta: dict, rng: np.random.Generator,
                       directory: pathlib.Path) -> dict:
    """The saved server generator state, checked by loading it into a
    scratch bit generator of the server's kind."""
    state = meta.get("server_rng")
    if state is None:
        raise ValueError(
            f"{directory / 'meta.json'} lacks the server generator "
            f"state 'server_rng' (written by an older version?)")
    try:
        type(rng.bit_generator)(0).state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{directory / 'meta.json'}: 'server_rng' is not a "
            f"{type(rng.bit_generator).__name__} state: {exc!r}") from exc
    return state


def _load_momentum(path: pathlib.Path,
                   layout: Layout) -> WeightStore | None:
    """FedAvgM's momentum buffer (``None`` when none was saved),
    checked against the simulation's layout."""
    if not path.exists():
        raise ValueError(f"{path} is missing (truncated checkpoint?)")
    with np.load(path) as archive:
        if "momentum" not in archive.files:
            return None
        momentum = archive["momentum"]
    if momentum.shape != (layout.num_params,) \
            or momentum.dtype != layout.dtype:
        raise ValueError(
            f"{path}: momentum is {momentum.shape} {momentum.dtype}, "
            f"but the simulation's layout {layout} needs "
            f"({layout.num_params},) {layout.dtype}")
    return WeightStore(layout, momentum)


def _load_planes(path: pathlib.Path,
                 simulation: FederatedSimulation) -> dict[str, np.ndarray]:
    """The registry archive's arrays, checked against the simulation's
    layout and its defense's state width."""
    if not path.exists():
        raise ValueError(f"{path} is missing (truncated checkpoint?)")
    with np.load(path) as archive:
        missing = sorted(set(_PLANES) - set(archive.files))
        if missing:
            raise ValueError(f"{path} lacks the arrays {missing}")
        planes = {name: archive[name] for name in _PLANES}
    layout = simulation.server.global_weights.layout
    widths = (layout.num_params, layout.num_params,
              simulation.registry.state_width)
    for name, width in zip(RegistryRows._fields, widths):
        shape = (len(planes["ids"]), width)
        if planes[name].shape != shape \
                or planes[name].dtype != layout.dtype:
            raise ValueError(
                f"{path}: plane {name!r} is {planes[name].shape} "
                f"{planes[name].dtype}, but the simulation's layout "
                f"{layout} and defense need {shape} {layout.dtype}")
    return planes
