"""Simulation checkpoint tests."""

import json

import numpy as np
import pytest

from repro.core.dinar import DINAR
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.checkpoint import load_checkpoint, save_checkpoint
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn
from repro.privacy.defenses.make import make_defense_for_config


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
    assert fresh.registry.client_ids() == sim.registry.client_ids()
    for cid in sim.registry:
        assert sim.registry[cid].allclose(fresh.registry[cid], atol=0.0)


def _assert_planes_equal(sim, fresh):
    """Every registry plane of ``fresh`` equals ``sim``'s bitwise."""
    saved, restored = sim.registry.planes(), fresh.registry.planes()
    assert saved.keys() == restored.keys()
    for name in saved:
        assert restored[name].dtype == saved[name].dtype
        assert restored[name].shape == saved[name].shape
        assert restored[name].tobytes() == saved[name].tobytes(), name


def test_roundtrip_restores_dinar_state(make_sim, tmp_path):
    sim = make_sim(DINAR(private_layer=-2))
    sim.run()
    save_checkpoint(sim, tmp_path / "ckpt")
    fresh = make_sim(DINAR(private_layer=-2))
    load_checkpoint(fresh, tmp_path / "ckpt")
    # DINAR's stored layers are the registry's state plane
    assert sim.registry.state_width \
        == sim.server.global_weights.layer_flat(1).size
    _assert_planes_equal(sim, fresh)
    for cid in sim.registry:
        assert fresh.registry.row(cid) == sim.registry.row(cid)


@pytest.mark.parametrize("name", ["gc", "dinar"])
def test_roundtrip_restores_every_plane(make_sim, tmp_path, name):
    """Saved after round 1, a fresh simulation holds the same
    personalized weights, last uploads and defense state rows."""
    from repro.privacy.defenses.make import make_defense_for_config
    config = FLConfig(num_clients=3, rounds=2, seed=0)
    sim = make_sim(make_defense_for_config(name, config))
    sim.run_round(0)
    assert sim.registry.state_width > 0
    save_checkpoint(sim, tmp_path / "ckpt")
    fresh = make_sim(make_defense_for_config(name, config))
    load_checkpoint(fresh, tmp_path / "ckpt")
    _assert_planes_equal(sim, fresh)
    assert sorted(fresh.last_updates) == sorted(sim.last_updates)


def test_missing_array_or_truncated_meta_raises(make_sim, tmp_path):
    sim = make_sim(DINAR(private_layer=-2))
    sim.run_round(0)
    directory = save_checkpoint(sim, tmp_path / "ckpt")
    meta = (directory / "meta.json").read_text()
    (directory / "meta.json").write_text(meta[:len(meta) // 2])
    with pytest.raises(ValueError, match="meta.json"):
        load_checkpoint(make_sim(DINAR(private_layer=-2)), directory)

    directory = save_checkpoint(sim, tmp_path / "ckpt2")
    planes = sim.registry.planes()
    del planes["state"]
    np.savez(directory / "registry.npz", **planes)
    fresh = make_sim(DINAR(private_layer=-2))
    with pytest.raises(ValueError, match="state"):
        load_checkpoint(fresh, directory)
    assert len(fresh.registry) == 0


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
    planes_before = {name: plane.copy() for name, plane
                     in other.registry.planes().items()}

    with pytest.raises(ValueError, match="layout"):
        load_checkpoint(other, tmp_path / "ckpt")

    assert other.server.global_weights is global_before
    assert np.array_equal(global_before.buffer, buffer_before)
    assert other.registry.client_ids() == sorted(personal_before)
    for cid, buffer in personal_before.items():
        assert np.array_equal(other.registry.get(cid).buffer, buffer)
    for name, plane in other.registry.planes().items():
        assert np.array_equal(plane, planes_before[name])


def test_restored_simulation_continues_identically(make_sim, tmp_path):
    """Round 1 after a restore equals round 1 of an uninterrupted run,
    bitwise: client rngs are per-round streams drawn from the seed, so
    nothing the checkpoint leaves out feeds the round."""
    whole = make_sim(DINAR(private_layer=-2))
    whole.run()
    sim = make_sim(DINAR(private_layer=-2))
    sim.run_round(0)
    save_checkpoint(sim, tmp_path / "ckpt")
    fresh = make_sim(DINAR(private_layer=-2))
    load_checkpoint(fresh, tmp_path / "ckpt")
    fresh.run_round(1)
    assert set(fresh.last_updates) == {0, 1, 2}
    assert fresh.server.global_weights.buffer.tobytes() \
        == whole.server.global_weights.buffer.tobytes()
    _assert_planes_equal(whole, fresh)


@pytest.fixture
def make_partial_sim(rng, tiny_model_factory):
    """Two of four clients per round (the server generator draws each
    cohort) under FedAvgM (the server keeps a momentum buffer)."""
    data = synthetic_tabular(rng, 300, 20, 4, noise=0.3)
    split = split_for_membership(data, np.random.default_rng(1))

    def build(defense_name="none"):
        config = FLConfig(num_clients=4, clients_per_round=2,
                          server_momentum=0.9, rounds=4, local_epochs=1,
                          batch_size=32, seed=0, eval_every=4)
        return FederatedSimulation(
            split, tiny_model_factory, config,
            make_defense_for_config(defense_name, config))
    return build


@pytest.mark.parametrize("defense_name", ["none", "cdp"])
def test_resume_matches_uninterrupted_run(make_partial_sim, tmp_path,
                                          defense_name):
    """run(4) equals run(2) -> save -> fresh load -> run(2), bitwise:
    the server generator state and the momentum buffer are restored."""
    whole = make_partial_sim(defense_name)
    whole.run()

    first = make_partial_sim(defense_name)
    for r in range(2):
        first.run_round(r)
    save_checkpoint(first, tmp_path / "ckpt")
    resumed = make_partial_sim(defense_name)
    load_checkpoint(resumed, tmp_path / "ckpt")
    for r in range(2, 4):
        resumed.run_round(r)

    assert resumed.server.global_weights.buffer.tobytes() \
        == whole.server.global_weights.buffer.tobytes()
    assert resumed.server.momentum_buffer.buffer.tobytes() \
        == whole.server.momentum_buffer.buffer.tobytes()
    assert resumed.server.rng.bit_generator.state \
        == whole.server.rng.bit_generator.state
    _assert_planes_equal(whole, resumed)


def test_bad_server_state_raises_before_restoring(make_partial_sim,
                                                  tmp_path):
    sim = make_partial_sim()
    sim.run_round(0)
    directory = save_checkpoint(sim, tmp_path / "ckpt")
    meta = json.loads((directory / "meta.json").read_text())

    def fresh_rejects(match):
        fresh = make_partial_sim()
        state = fresh.server.rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            load_checkpoint(fresh, directory)
        assert len(fresh.registry) == 0
        assert fresh.server.momentum_buffer is None
        assert fresh.server.rng.bit_generator.state == state

    bad = dict(meta, server_rng={"bit_generator": "MT19937"})
    (directory / "meta.json").write_text(json.dumps(bad))
    fresh_rejects("server_rng")
    del bad["server_rng"]
    (directory / "meta.json").write_text(json.dumps(bad))
    fresh_rejects("server_rng")

    (directory / "meta.json").write_text(json.dumps(meta))
    np.savez(directory / "server.npz", momentum=np.zeros(3))
    fresh_rejects("momentum")
    (directory / "server.npz").unlink()
    fresh_rejects("server.npz")


def test_checkpoint_holds_only_flat_buffers_and_planes(make_partial_sim,
                                                       tmp_path):
    """The checkpoint's one weight format: each array is a flat vector
    over the layout or a ``(rows, width)`` plane, never a named
    per-entry array, and only the planes the run allocates (no
    defense derives personalized weights, CDP stores them);
    ``meta.json`` records the layout's entries."""
    for name, stored in (("none", False), ("cdp", True)):
        sim = make_partial_sim(name)
        sim.run_round(0)
        directory = save_checkpoint(sim, tmp_path / name)
        layout = sim.server.global_weights.layout
        rows = len(sim.registry)
        shapes = {}
        for path in sorted(directory.glob("*.npz")):
            with np.load(path) as archive:
                shapes.update({f"{path.stem}/{k}": archive[k].shape
                               for k in archive.files})
        assert not any("layer" in name for name in shapes)
        assert shapes == {
            "server/global": (layout.num_params,),
            "server/momentum": (layout.num_params,),
            "registry/ids": (rows,),
            **({"registry/personal": (rows, layout.num_params)}
               if stored else {}),
            "registry/uploads": (rows, layout.num_params),
            "registry/state": (rows, sim.registry.state_width),
        }
        meta = json.loads((directory / "meta.json").read_text())
        assert [tuple(e[:2]) + (tuple(e[2]),) for e in meta["layout"]] \
            == [(e.layer_idx, e.key, e.shape) for e in layout.entries]


@pytest.mark.parametrize("defense_name", ["cdp", "ladp"])
def test_resume_keeps_the_privacy_spend(make_partial_sim, tmp_path,
                                        defense_name):
    """run(4) and run(2) -> save -> fresh load -> run(2) end with the
    same weights and the same DP accountant spend: the checkpoint
    carries what the first two rounds spent."""
    whole = make_partial_sim(defense_name)
    whole.run()
    first = make_partial_sim(defense_name)
    for r in range(2):
        first.run_round(r)
    directory = save_checkpoint(first, tmp_path / "ckpt")
    resumed = make_partial_sim(defense_name)
    load_checkpoint(resumed, directory)
    for r in range(2, 4):
        resumed.run_round(r)

    assert resumed.server.global_weights.buffer.tobytes() \
        == whole.server.global_weights.buffer.tobytes()
    spent, expected = resumed.defense.accountant, whole.defense.accountant
    assert expected.releases == 4
    assert (spent.spent_epsilon, spent.spent_delta, spent.releases) \
        == (expected.spent_epsilon, expected.spent_delta,
            expected.releases)

    meta = json.loads((directory / "meta.json").read_text())
    del meta["accountant"]
    (directory / "meta.json").write_text(json.dumps(meta))
    fresh = make_partial_sim(defense_name)
    with pytest.raises(ValueError, match="accountant"):
        load_checkpoint(fresh, directory)
    assert fresh.defense.accountant.releases == 0
    assert len(fresh.registry) == 0
