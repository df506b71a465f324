"""Simulation checkpoint tests."""

import numpy as np
import pytest

from repro.core.dinar import DINAR
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.checkpoint import load_checkpoint, save_checkpoint
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn


@pytest.fixture
def make_sim(rng, tiny_model_factory):
    data = synthetic_tabular(rng, 300, 20, 4, noise=0.3)
    split = split_for_membership(data, np.random.default_rng(1))

    def build(defense=None, factory=tiny_model_factory):
        return FederatedSimulation(
            split, factory,
            FLConfig(num_clients=3, rounds=2, local_epochs=2,
                     batch_size=32, seed=0), defense)
    return build


def test_roundtrip_restores_global_model(make_sim, tmp_path):
    sim = make_sim()
    sim.run()
    save_checkpoint(sim, tmp_path / "ckpt")

    fresh = make_sim()
    meta = load_checkpoint(fresh, tmp_path / "ckpt")
    assert meta["rounds_completed"] == 2  # one record per round
    assert fresh.server.global_weights.allclose(
        sim.server.global_weights, atol=0.0)
    # the simulation's own layout object, not one derived from the
    # archive (which would mark every entry trainable)
    assert fresh.server.global_weights.layout is fresh._layout


def test_roundtrip_restores_personal_weights(make_sim, tmp_path):
    sim = make_sim()
    sim.run()
    save_checkpoint(sim, tmp_path / "ckpt")
    fresh = make_sim()
    load_checkpoint(fresh, tmp_path / "ckpt")
    for original, restored in zip(sim.clients, fresh.clients):
        assert original.personal_weights.allclose(
            restored.personal_weights, atol=0.0)


def test_roundtrip_restores_dinar_state(make_sim, tmp_path):
    sim = make_sim(DINAR(private_layer=-2))
    sim.run()
    save_checkpoint(sim, tmp_path / "ckpt")
    fresh = make_sim(DINAR(private_layer=-2))
    load_checkpoint(fresh, tmp_path / "ckpt")
    assert sorted(fresh.defense._stored) == sorted(sim.defense._stored)
    for client_id, layers in sim.defense._stored.items():
        restored = fresh.defense._stored[client_id]
        assert sorted(restored) == sorted(layers)
        for idx, flat in layers.items():
            assert restored[idx].dtype == flat.dtype
            assert restored[idx].tobytes() == flat.tobytes()
    assert fresh.defense.state_bytes() == sim.defense.state_bytes()


@pytest.mark.parametrize("hidden", [(2, 66), (8,)],
                         ids=["same-size", "different-size"])
def test_load_rejects_other_architecture(make_sim, tmp_path, hidden):
    """A checkpoint of another layout raises before touching any state
    (the tiny model and (2, 66) both have 508 parameters)."""
    sim = make_sim(DINAR(private_layer=-2))
    sim.run_round(0)
    save_checkpoint(sim, tmp_path / "ckpt")

    other = make_sim(DINAR(private_layer=-2),
                     factory=lambda r: build_fcnn(20, 4, r, hidden=hidden))
    other.run_round(0)
    global_before = other.server.global_weights
    buffer_before = global_before.buffer.copy()
    personal_before = {cid: other.registry.get(cid).buffer.copy()
                       for cid in other.registry.client_ids()}
    stored_before = {cid: dict(layers) for cid, layers
                     in other.defense._stored.items()}

    with pytest.raises(ValueError, match="layout"):
        load_checkpoint(other, tmp_path / "ckpt")

    assert other.server.global_weights is global_before
    assert np.array_equal(global_before.buffer, buffer_before)
    assert other.registry.client_ids() == sorted(personal_before)
    for cid, buffer in personal_before.items():
        assert np.array_equal(other.registry.get(cid).buffer, buffer)
    assert other.defense._stored.keys() == stored_before.keys()
    for cid, layers in stored_before.items():
        assert other.defense._stored[cid].keys() == layers.keys()
        for idx, flat in layers.items():
            assert other.defense._stored[cid][idx] is flat


def test_restored_simulation_continues_identically(make_sim, tmp_path):
    """Running round 2 after restore matches an uninterrupted run...
    for the deterministic parts (the client rngs advance with use, so
    we check the restored sim produces a *valid* continuation)."""
    sim = make_sim(DINAR(private_layer=-2))
    sim.run_round(0)
    save_checkpoint(sim, tmp_path / "ckpt")
    fresh = make_sim(DINAR(private_layer=-2))
    load_checkpoint(fresh, tmp_path / "ckpt")
    record = fresh.run_round(1)
    assert record is None or 0.0 <= record.global_accuracy <= 1.0
    assert set(fresh.last_updates) == {0, 1, 2}
