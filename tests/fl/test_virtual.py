"""Virtual-client plane: descriptors, registry, pool, bitwise parity.

The plane's contract has three legs:

* **parity** — a trajectory is a pure function of (seed, config,
  defense), never of the pool capacity: capacity 1 (every task rebinds
  the single pooled model) must match capacity ``num_clients`` (every
  client keeps its own model — the eager plane's shape) bit for bit,
  for every defense, including DINAR's stored private layers and
  secure aggregation's pairwise masks;
* **isolation** — a rebind never leaks the previous client's buffers:
  handles expose only the bound client's state, and registry rows are
  copies that pooled-model mutation cannot corrupt;
* **economy** — construction is O(pool), not O(num_clients): one
  factory call, zero live models until materialization, lazy shard
  subsets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import ClientShards, split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.fl.virtual import PersonalWeightsRegistry, VirtualClientFleet
from repro.models.fcnn import build_fcnn
from repro.privacy.defenses.make import make_defense_for_config

DEFENSE_NAMES = ("none", "dinar", "ldp", "wdp", "cdp", "gc", "sa")


def _split():
    rng = np.random.default_rng(3)
    data = synthetic_tabular(rng, 300, 20, 4, noise=0.3, name="virt")
    return split_for_membership(data, np.random.default_rng(1))


def _factory(rng):
    return build_fcnn(20, 4, rng, hidden=(12,))


def _run(defense_name: str, capacity: int, *, num_clients: int = 3,
         workers: int = 0) -> FederatedSimulation:
    config = FLConfig(num_clients=num_clients, rounds=2, local_epochs=1,
                      batch_size=32, seed=0, eval_every=2,
                      workers=workers, max_materialized=capacity)
    defense = make_defense_for_config(defense_name, config)
    sim = FederatedSimulation(_split(), _factory, config, defense)
    sim.run()
    return sim


def _snapshot(sim: FederatedSimulation) -> dict:
    """Everything a trajectory determines: global weights, every
    client's personalized weights, and DINAR's stored layers."""
    snap = {
        "global": sim.server.global_weights.buffer.copy(),
        "personal": {
            cid: sim.registry.get(cid).buffer.copy()
            for cid in sim.registry.client_ids()
        },
    }
    stored = getattr(sim.defense, "_stored", None)
    if stored:
        snap["dinar"] = {
            cid: {idx: flat.copy() for idx, flat in layers.items()}
            for cid, layers in stored.items()
        }
    return snap


def _assert_snapshots_equal(a: dict, b: dict) -> None:
    np.testing.assert_array_equal(a["global"], b["global"])
    assert a["personal"].keys() == b["personal"].keys()
    for cid in a["personal"]:
        np.testing.assert_array_equal(a["personal"][cid],
                                      b["personal"][cid])
    assert ("dinar" in a) == ("dinar" in b)
    if "dinar" in a:
        assert a["dinar"].keys() == b["dinar"].keys()
        for cid in a["dinar"]:
            assert a["dinar"][cid].keys() == b["dinar"][cid].keys()
            for idx, flat in a["dinar"][cid].items():
                np.testing.assert_array_equal(b["dinar"][cid][idx], flat)


# ----------------------------------------------------------------------
# parity: pool capacity is bitwise-invisible, across every defense
# ----------------------------------------------------------------------

#: Eager-shaped reference (capacity >= num_clients: no rebind ever),
#: computed once per defense and reused across hypothesis examples.
_REFERENCE: dict = {}


def _reference(defense_name: str) -> dict:
    if defense_name not in _REFERENCE:
        _REFERENCE[defense_name] = _snapshot(_run(defense_name, 3))
    return _REFERENCE[defense_name]


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(DEFENSE_NAMES), st.integers(1, 2))
def test_virtual_fleet_bitwise_matches_eager_any_capacity(
        defense_name, capacity):
    """Starved pools (capacity < num_clients, rebinds every round)
    reproduce the eager-shaped trajectory exactly — DINAR stored
    layers and SA masks included."""
    virtual = _snapshot(_run(defense_name, capacity))
    _assert_snapshots_equal(virtual, _reference(defense_name))


def test_parallel_executor_matches_serial_with_starved_pool():
    serial = _snapshot(_run("dinar", 1))
    parallel = _snapshot(_run("dinar", 1, workers=2))
    _assert_snapshots_equal(serial, parallel)


# ----------------------------------------------------------------------
# economy: construction is O(pool), not O(num_clients)
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
    assert sim.fleet.live_models == 0
    assert sim.fleet.materializations == 0


def test_live_models_bounded_by_capacity_over_a_run():
    sim = _run("none", 2, num_clients=5)
    assert sim.fleet.live_models == 2
    assert sim.fleet.peak_live_models == 2
    # every (round, client) cell was a bind: 2 rounds x 5 clients,
    # minus any cell whose client was already bound (capacity 2 over
    # 5 round-robin clients never gets a hit)
    assert sim.fleet.materializations == 10
    assert sim.cost_meter.report.peak_live_models == 2
    assert sim.cost_meter.report.model_materializations == 10
    assert sim.cost_meter.report.registry_bytes == sim.registry.nbytes


def test_num_samples_answered_without_materialization():
    config = FLConfig(num_clients=4, rounds=1, seed=0)
    sim = FederatedSimulation(_split(), _factory, config)
    for cid in range(4):
        assert sim.fleet.num_samples(cid) == len(sim.client_dataset(cid))
    assert sim.fleet.live_models == 0


# ----------------------------------------------------------------------
# isolation: rebinds never leak the previous client's state
# ----------------------------------------------------------------------

def test_rebind_exposes_only_the_new_clients_state():
    sim = _run("none", 1, num_clients=3)
    handle = sim.fleet.materialize(0)
    assert handle.client_id == 0
    personal_0 = handle.personal_weights.buffer.copy()
    data_0 = handle.data

    rebound = sim.fleet.materialize(1)
    assert rebound is handle, "capacity-1 pool must reuse the instance"
    assert handle.client_id == 1
    # the handle's dataset and personal weights are client 1's now
    shard_1 = sim.shards.shard(1)
    np.testing.assert_array_equal(handle.data.y,
                                  sim.split.members.y[shard_1])
    assert not np.array_equal(handle.personal_weights.buffer, personal_0)
    assert handle.data is not data_0
    # ...and client 0's residue is untouched in the registry
    np.testing.assert_array_equal(sim.registry.get(0).buffer, personal_0)


def test_unbound_rebind_has_no_personal_weights():
    config = FLConfig(num_clients=3, rounds=1, seed=0,
                      max_materialized=1)
    sim = FederatedSimulation(_split(), _factory, config)
    first = sim.fleet.materialize(0)
    # simulate residue for client 0 only
    sim.registry.put(0, np.ones(sim.server.global_weights.layout
                                .num_params))
    assert first.personal_weights is not None
    second = sim.fleet.materialize(1)
    assert second is first
    assert second.personal_weights is None, (
        "a rebound client must not see the previous client's weights")
    with pytest.raises(RuntimeError, match="has not trained"):
        second.evaluate(sim.split.nonmembers.x, sim.split.nonmembers.y)


def test_registry_rows_survive_pooled_model_mutation():
    sim = _run("none", 1, num_clients=3)
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
    sim = _run("none", 2, num_clients=3)
    assert sim.fleet.eval_model() is sim.fleet.eval_model()
    test = sim.split.nonmembers
    for cid in sim.registry.client_ids():
        client = sim.fleet.materialize(cid)
        via_shared = client.evaluate(test.x, test.y)
        via_clone = float(np.mean(
            client.personalized_model().predict(test.x) == test.y))
        assert via_shared == via_clone


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
        sim.fleet.materialize(cid).evaluate(test.x, test.y)
        for cid in trained
    ]))
    assert sim.mean_client_accuracy() == expected


def test_standalone_fleet_usable_without_simulation():
    split = _split()
    members = split.members
    shards = ClientShards.pack([np.arange(0, 30), np.arange(30, 75)])
    config = FLConfig(num_clients=2, rounds=1, seed=0)
    template = _factory(np.random.default_rng(0))
    fleet = VirtualClientFleet(members, shards, template, config,
                               make_defense_for_config("none", config))
    assert len(fleet) == 2
    assert [c.client_id for c in fleet] == [0, 1]
    assert fleet.dataset(1).x.shape[0] == 45
    descriptor = fleet.descriptor(0)
    assert descriptor.num_samples == 30
    assert np.shares_memory(descriptor.shard, shards.indices)
