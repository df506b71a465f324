"""Workspace process-locality across the FL stack.

``Workspace.__reduce__`` raises ``TypeError``, so every assertion here
leans on the same lever: if a payload pickles (or serializes to disk)
successfully, no workspace is reachable from it.  The tests run real
simulations first so the client models' arenas are populated — the
interesting case is a *warm* workspace leaking, not an empty one.
"""

import pickle

import numpy as np
import pytest

from repro.core.dinar import DINAR
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.checkpoint import load_checkpoint, save_checkpoint
from repro.fl.config import FLConfig
from repro.fl.executor import ClientTask, execute_client_task
from repro.fl.simulation import FederatedSimulation
from repro.nn.workspace import Workspace
from repro.privacy.defenses.make import make_defense_for_config

DEFENSE_NAMES = ["none", "ldp", "cdp", "wdp", "gc", "sa", "dinar"]


@pytest.fixture
def make_sim(rng, tiny_model_factory):
    data = synthetic_tabular(rng, 300, 20, 4, noise=0.3)
    split = split_for_membership(data, np.random.default_rng(1))

    def build(defense=None, **cfg_kwargs):
        defaults = dict(num_clients=3, rounds=2, local_epochs=2,
                        batch_size=32, seed=0)
        defaults.update(cfg_kwargs)
        return FederatedSimulation(split, tiny_model_factory,
                                   FLConfig(**defaults), defense)
    return build


def _run_warm(make_sim, defense=None, **cfg_kwargs):
    """A finished simulation whose client models hold warm arenas."""
    sim = make_sim(defense, **cfg_kwargs)
    sim.run()
    warm = [client.model.workspace for client in sim.clients]
    assert all(isinstance(ws, Workspace) for ws in warm)
    assert any(ws.num_buffers > 0 for ws in warm), \
        "expected training to populate at least one client arena"
    return sim


@pytest.mark.parametrize("name", DEFENSE_NAMES)
def test_defense_export_state_pickles_without_workspace(
        make_sim, name):
    config = FLConfig(num_clients=3, rounds=2, local_epochs=2,
                      batch_size=32, seed=0)
    defense = make_defense_for_config(name, config)
    sim = _run_warm(make_sim, defense)
    # a workspace anywhere in these payloads would make dumps() raise
    pickle.dumps(sim.defense.export_round_state())
    for client in sim.clients:
        pickle.dumps(sim.defense.export_client_state(client.client_id))


def test_checkpoint_files_hold_no_workspace(make_sim, tmp_path):
    sim = _run_warm(make_sim, DINAR(private_layer=-2))
    directory = save_checkpoint(sim, tmp_path / "ckpt")
    # checkpoints are npz archives of plain arrays + JSON metadata;
    # assert nothing pickled a scratch arena into them.
    for path in directory.iterdir():
        if path.suffix == ".npz":
            with np.load(path, allow_pickle=False) as archive:
                for key in archive.files:
                    archive[key]
    fresh = make_sim(DINAR(private_layer=-2))
    load_checkpoint(fresh, directory)
    assert fresh.server.global_weights.allclose(
        sim.server.global_weights, atol=0.0)


def test_executor_payloads_pickle_with_warm_arenas(make_sim):
    sim = _run_warm(make_sim)
    task = ClientTask(
        round_index=len(sim.history.records),
        client_id=0,
        global_buffer=sim.server.global_weights.buffer.copy(),
        client_state=sim.defense.export_client_state(0),
        round_state=sim.defense.export_round_state(),
    )
    restored = pickle.loads(pickle.dumps(task))
    layout = sim.server.global_weights.layout
    result = execute_client_task(sim.clients[0], sim.defense,
                                 layout, restored)
    # the worker->parent payload must also cross clean
    pickle.loads(pickle.dumps(result))


def test_client_model_pickle_rebuilds_fresh_arena(make_sim):
    sim = _run_warm(make_sim)
    client = sim.clients[0]
    assert client.model.workspace.num_buffers > 0
    restored = pickle.loads(pickle.dumps(client.model))
    assert restored.workspace.num_buffers == 0
    assert np.array_equal(restored.weights.buffer,
                          client.model.weights.buffer)
