"""Simulation checkpointing.

Long federated runs (the paper's Purchase100 uses 300 rounds) need to
survive interruption. A checkpoint holds the weight plane's one format
— flat buffers plus the layout they index — and nothing else:

* ``server.npz`` — the global model's flat buffer (``global``) and,
  under FedAvgM, the momentum buffer (``momentum``);
* ``registry.npz`` — the client registry's row order and its planes
  (personalized weights, last uploads, defense state such as DINAR's
  stored private layers or GC's residual), one ``(rows, width)``
  array each;
* ``meta.json`` — the rounds completed, the dtype, the layout's
  ``(layer, key, shape)`` entries and the generator state of
  ``FLServer.rng`` (it draws the ``clients_per_round`` cohort and
  CDP's noise).

A restored simulation therefore holds the same per-client state and
server state, and a resumed run continues the uninterrupted
trajectory bitwise.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.fl.simulation import FederatedSimulation
from repro.fl.virtual import RegistryRows
from repro.nn.store import Layout, WeightStore

#: The registry archive's arrays: the row order, then each plane.
_PLANES = ("ids",) + RegistryRows._fields


def save_checkpoint(simulation: FederatedSimulation,
                    directory: str | pathlib.Path) -> pathlib.Path:
    """Write the simulation's resumable state into a directory."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    server = simulation.server
    layout = server.global_weights.layout
    np.savez(directory / "registry.npz", **simulation.registry.planes())
    arrays = {"global": server.global_weights.buffer}
    if server.momentum_buffer is not None:
        arrays["momentum"] = server.momentum_buffer.buffer
    np.savez(directory / "server.npz", **arrays)
    meta = {
        "rounds_completed": len(simulation.history.records),
        "dtype": layout.dtype.name,
        "layout": [[e.layer_idx, e.key, list(e.shape)]
                   for e in layout.entries],
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
    _check_layout(meta, layout, directory)
    server = simulation.server
    rng_state = _checked_rng_state(meta, server.rng, directory)
    global_weights, momentum = _load_server(directory / "server.npz",
                                            layout)
    planes = _load_planes(directory / "registry.npz", simulation)
    server.global_weights = global_weights
    simulation.registry.restore(planes)
    server.rng.bit_generator.state = rng_state
    server.momentum_buffer = momentum
    return meta


def _check_layout(meta: dict, layout: Layout,
                  directory: pathlib.Path) -> None:
    """Raise unless the saved ``(layer, key, shape)`` entries are the
    simulation's layout (two architectures may share a parameter
    count, so the flat buffers' sizes alone cannot tell)."""
    expected = [(e.layer_idx, e.key, e.shape) for e in layout.entries]
    try:
        saved = [(int(i), str(key), tuple(map(int, shape)))
                 for i, key, shape in meta["layout"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{directory / 'meta.json'} has no readable layout "
            f"entries: {exc!r}") from exc
    if saved != expected:
        raise ValueError(
            f"{directory}: checkpoint layout {saved} does not match the "
            f"simulation's layout {layout!r} {expected}")


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


def _load_server(path: pathlib.Path, layout: Layout
                 ) -> tuple[WeightStore, WeightStore | None]:
    """The global model and FedAvgM's momentum buffer (``None`` when
    none was saved), each checked against the simulation's layout."""
    if not path.exists():
        raise ValueError(f"{path} is missing (truncated checkpoint?)")
    with np.load(path) as archive:
        buffers = {name: archive[name] for name in ("global", "momentum")
                   if name in archive.files}
    for name, buffer in buffers.items():
        if buffer.shape != (layout.num_params,) \
                or buffer.dtype != layout.dtype:
            raise ValueError(
                f"{path}: {name} is {buffer.shape} {buffer.dtype}, but "
                f"the simulation's layout {layout} needs "
                f"({layout.num_params},) {layout.dtype}")
    if "global" not in buffers:
        raise ValueError(f"{path} lacks the global model 'global'")
    momentum = buffers.get("momentum")
    return (WeightStore(layout, buffers["global"]),
            None if momentum is None else WeightStore(layout, momentum))


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
