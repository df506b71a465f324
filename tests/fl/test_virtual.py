"""Virtual-client plane: descriptors, registry, one training model.

The plane's contract has three legs:

* **parity** — one training model rebound for every cell reproduces
  the eager plane (one model per client) bit for bit, for every
  defense: the ``defense/*`` golden pins in ``test_trajectory_pins``
  were recorded on the eager plane and run on this one;
* **isolation** — a rebind never leaks the previous client's buffers:
  handles expose only the bound client's state, and registry rows are
  copies that training-model mutation cannot corrupt;
* **economy** — a process holds one model, not O(num_clients): one
  factory call (the trainer evaluates too), lazy shard subsets, and no
  arena left behind by an evaluated round.
"""

import multiprocessing

import numpy as np
import pytest

from repro.data.partition import ClientShards, split_for_membership
from repro.data.synthetic import synthetic_images, synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.executor import round_rng
from repro.fl.shm import shm_available
from repro.fl.simulation import FederatedSimulation
from repro.fl.virtual import PersonalWeightsRegistry, VirtualClientFleet
from repro.models.fcnn import build_fcnn
from repro.nn.activations import ReLU, Tanh
from repro.nn.layers import BatchNorm1d, Conv2d, Dense, Flatten, MaxPool2d
from repro.nn.model import Model
from repro.privacy.defenses.make import make_defense_for_config

#: Executor worker counts: serial, and the shm executor where it runs.
WORKERS = [
    0,
    pytest.param(2, marks=pytest.mark.skipif(
        not shm_available()
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="parallel executor requires fork and /dev/shm")),
]


def _split():
    rng = np.random.default_rng(3)
    data = synthetic_tabular(rng, 300, 20, 4, noise=0.3, name="virt")
    return split_for_membership(data, np.random.default_rng(1))


def _factory(rng):
    return build_fcnn(20, 4, rng, hidden=(12,))


def _run(num_clients: int) -> FederatedSimulation:
    """A finished 2-round run with every client in every round."""
    config = FLConfig(num_clients=num_clients, rounds=2, local_epochs=1,
                      batch_size=32, seed=0, eval_every=2)
    sim = FederatedSimulation(_split(), _factory, config)
    sim.run()
    return sim


# ----------------------------------------------------------------------
# economy: one training model per process, not O(num_clients)
# ----------------------------------------------------------------------

def test_construction_builds_one_model_regardless_of_fleet_size():
    calls = {"n": 0}

    def counting_factory(rng):
        calls["n"] += 1
        return _factory(rng)

    config = FLConfig(num_clients=64, rounds=1, local_epochs=1,
                      batch_size=32, seed=0)
    sim = FederatedSimulation(_split(), counting_factory, config)
    assert calls["n"] == 1, (
        f"construction must build exactly one template model, "
        f"called the factory {calls['n']} times")
    assert sim.fleet.materializations == 0


def test_one_training_model_per_process():
    """A serial run of 10 clients x 2 rounds trains and evaluates on
    one model, the template."""
    sim = _run(10)
    # every (round, client) cell was a bind of the one training client
    assert sim.fleet.materializations == 20
    assert sim.cost_meter.report.model_materializations == 20
    assert sim.cost_meter.report.registry_bytes == sim.registry.nbytes
    trainer = sim.fleet.materialize(0)
    assert sim.fleet.materialize(9) is trainer
    assert sim.fleet.eval_model() is sim.fleet.materialize(0).model


@pytest.mark.parametrize("workers", WORKERS)
def test_evaluated_run_leaves_no_arena(workers):
    config = FLConfig(num_clients=3, rounds=2, local_epochs=1,
                      batch_size=32, seed=0, workers=workers)
    sim = FederatedSimulation(_split(), _factory, config)
    sim.run()
    assert sim.history.records
    model = sim.fleet.eval_model()
    assert model.workspace.num_buffers == 0
    # no layer cache keeps a cleared buffer alive
    assert not [key for layer in model.layers
                for key in layer._ephemeral if key in vars(layer)]


@pytest.mark.parametrize("name", ["none", "dinar"])
def test_registry_nbytes_counts_every_plane(name):
    config = FLConfig(num_clients=4, rounds=1, local_epochs=1,
                      batch_size=32, seed=0)
    sim = FederatedSimulation(_split(), _factory, config,
                              make_defense_for_config(name, config))
    sim.run()
    rows = sim.registry.rows
    assert (rows.state.shape[1] > 0) == (name == "dinar")
    assert sim.registry.nbytes == (rows.personal.nbytes
                                   + rows.uploads.nbytes
                                   + rows.state.nbytes)
    assert sim.cost_meter.report.registry_bytes == sim.registry.nbytes


def test_num_samples_answered_without_materialization():
    config = FLConfig(num_clients=4, rounds=1, seed=0)
    sim = FederatedSimulation(_split(), _factory, config)
    for cid in range(4):
        assert sim.fleet.num_samples(cid) == len(sim.client_dataset(cid))
    assert sim.fleet.materializations == 0


# ----------------------------------------------------------------------
# isolation: rebinds never leak the previous client's state
# ----------------------------------------------------------------------

def test_rebind_exposes_only_the_new_clients_state():
    """A trainer rebound from client 0 trains client 1 exactly as a
    fresh trainer does, and leaves client 0's registry row alone."""
    sim = _run(3)
    personal_0 = sim.registry[0].buffer.copy()
    global_weights = sim.server.global_weights
    handle = sim.fleet.materialize(0)
    handle.train_round(global_weights, 2, rng=round_rng(0, 2, 0))

    rebound = sim.fleet.materialize(1)
    assert rebound is handle, "the fleet must reuse its one instance"
    assert handle.client_id == 1
    assert handle.num_samples == sim.shards.num_samples(1)
    result = handle.train_round(global_weights, 2, rng=round_rng(0, 2, 1))
    fresh = _run(3).fleet.materialize(1)
    reference = fresh.train_round(global_weights, 2,
                                  rng=round_rng(0, 2, 1))
    assert np.array_equal(result.update_buffer, reference.update_buffer)
    assert np.array_equal(result.personal_buffer,
                          reference.personal_buffer)
    # ...and client 0's residue is untouched in the registry
    np.testing.assert_array_equal(sim.registry[0].buffer, personal_0)


def test_unbound_rebind_has_no_personal_weights():
    """Binding the trainer writes no registry row: a client has
    personalized weights only once the simulation stores a round's."""
    config = FLConfig(num_clients=3, rounds=1, seed=0)
    sim = FederatedSimulation(_split(), _factory, config)
    sim.fleet.materialize(0)
    # simulate residue for client 0 only
    sim.registry.put(0, np.ones(sim.server.global_weights.layout
                                .num_params))
    sim.fleet.materialize(1)
    assert sim.registry.get(1) is None, (
        "a rebound client must not see the previous client's weights")
    assert sim.registry.client_ids() == [0]


def test_registry_rows_survive_pooled_model_mutation():
    sim = _run(3)
    row = sim.registry.get(2).buffer
    before = row.copy()
    client = sim.fleet.materialize(2)
    client.model.weights.buffer[...] = -1.0
    np.testing.assert_array_equal(sim.registry.get(2).buffer, before)


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------

def _layout():
    return _factory(np.random.default_rng(0)).weight_layout()


def test_registry_put_copies_and_get_views():
    layout = _layout()
    registry = PersonalWeightsRegistry(layout)
    source = np.arange(layout.num_params, dtype=np.float64)
    registry.put(7, source)
    source[...] = -5.0
    np.testing.assert_array_equal(
        registry.get(7).buffer,
        np.arange(layout.num_params, dtype=np.float64))
    # get() is a zero-copy view: a second put is visible through it
    view = registry.get(7).buffer
    registry.put(7, np.zeros(layout.num_params))
    assert view[0] == 0.0


def test_registry_growth_preserves_rows_and_order():
    layout = _layout()
    registry = PersonalWeightsRegistry(layout)
    ids = [20, 3, 11, 40, 5, 0, 99, 12, 33, 8, 1, 77]  # forces growth
    for i, cid in enumerate(ids):
        registry.put(cid, np.full(layout.num_params, float(i)))
    assert registry.client_ids() == sorted(ids)
    assert len(registry) == len(ids)
    for i, cid in enumerate(ids):
        np.testing.assert_array_equal(
            registry.get(cid).buffer,
            np.full(layout.num_params, float(i)))
    assert registry.get(1234) is None
    assert 1234 not in registry
    assert 40 in registry


def test_registry_rejects_wrong_size():
    registry = PersonalWeightsRegistry(_layout())
    with pytest.raises(ValueError, match="does not match layout"):
        registry.put(0, np.zeros(3))


# ----------------------------------------------------------------------
# shards
# ----------------------------------------------------------------------

def test_client_shards_pack_round_trips():
    rng = np.random.default_rng(9)
    shard_list = [rng.integers(0, 1000, size=n)
                  for n in (5, 0, 17, 1, 42)]
    shards = ClientShards.pack(shard_list)
    assert len(shards) == 5
    assert shards.total_samples == 65
    for i, original in enumerate(shard_list):
        np.testing.assert_array_equal(shards.shard(i), original)
        assert shards.num_samples(i) == len(original)
    # views, not copies
    assert np.shares_memory(shards.shard(2), shards.indices)
    with pytest.raises(IndexError):
        shards.shard(5)
    assert shards.nbytes == shards.indices.nbytes + shards.offsets.nbytes


# ----------------------------------------------------------------------
# evaluation routing
# ----------------------------------------------------------------------

def test_fleet_shares_one_eval_model():
    sim = _run(3)
    assert sim.fleet.eval_model() is sim.fleet.eval_model()
    test = sim.split.nonmembers
    for cid in sim.registry.client_ids():
        via_shared = sim.fleet.evaluate_weights(sim.registry[cid],
                                                test.x, test.y)
        twin = _factory(np.random.default_rng(0))
        twin.set_store(sim.registry[cid])
        via_twin = float(np.mean(twin.predict(test.x) == test.y))
        assert via_shared == via_twin


def test_mean_client_accuracy_covers_exactly_the_registry():
    config = FLConfig(num_clients=5, rounds=2, local_epochs=1,
                      batch_size=32, seed=0, clients_per_round=2,
                      eval_every=2)
    sim = FederatedSimulation(_split(), _factory, config)
    sim.run()
    trained = sim.registry.client_ids()
    assert 0 < len(trained) < 5
    test = sim.split.nonmembers
    expected = float(np.mean([
        sim.fleet.evaluate_weights(sim.registry[cid], test.x, test.y)
        for cid in trained
    ]))
    assert sim.mean_client_accuracy() == expected


def _conv_bn_factory(rng):
    """A padded conv net with batch-norm running statistics."""
    return Model([
        Conv2d(3, 4, 3, rng, padding=1), ReLU(), MaxPool2d(2), Flatten(),
        Dense(64, 8, rng), BatchNorm1d(8), Tanh(), Dense(8, 4, rng),
    ], name="conv-bn")


def _image_split():
    data = synthetic_images(np.random.default_rng(3), 240, (3, 8, 8), 4,
                            name="virt-images")
    return split_for_membership(data, np.random.default_rng(1))


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("family", ["conv-bn", "fcnn"])
def test_evaluating_every_round_moves_no_bit(family, workers):
    """Evaluating on the trainer between rounds (at batch 256, then
    dropping its arena) leaves the trajectory of one final evaluation:
    equal global weights and registry planes."""
    split, factory = {"conv-bn": (_image_split, _conv_bn_factory),
                      "fcnn": (_split, _factory)}[family]

    def finished(eval_every):
        config = FLConfig(num_clients=3, rounds=3, local_epochs=1,
                          batch_size=16, seed=0, workers=workers,
                          eval_every=eval_every)
        sim = FederatedSimulation(split(), factory, config)
        sim.run()
        assert len(sim.history.records) == 3 // eval_every
        return sim

    every, once = finished(1), finished(3)
    assert (every.server.global_weights.buffer.tobytes()
            == once.server.global_weights.buffer.tobytes())
    planes = once.registry.planes()
    for name, plane in every.registry.planes().items():
        assert plane.tobytes() == planes[name].tobytes(), name


def test_standalone_fleet_usable_without_simulation():
    split = _split()
    members = split.members
    shards = ClientShards.pack([np.arange(0, 30), np.arange(30, 75)])
    config = FLConfig(num_clients=2, rounds=1, seed=0)
    template = _factory(np.random.default_rng(0))
    fleet = VirtualClientFleet(members, shards, template, config,
                               make_defense_for_config("none", config))
    assert len(fleet) == 2
    assert [fleet.materialize(i).client_id for i in range(2)] == [0, 1]
    assert fleet.dataset(1).x.shape[0] == 45
    descriptor = fleet.descriptor(0)
    assert descriptor.num_samples == 30
    assert np.shares_memory(descriptor.shard, shards.indices)
