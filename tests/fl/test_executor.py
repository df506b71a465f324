"""Round executor tests: serial/parallel bitwise identity + failure
surfacing.

The headline invariant of ``repro.fl.executor``: a federated run is a
pure function of ``(config, data, defense)`` — never of how many
processes executed it.  These tests pin that down by running full
multi-round simulations twice, serial and parallel, and comparing
every artifact bit for bit: global weights, per-client personalized
weights, transmitted (post-defense) updates, and recorded accuracies.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.dinar import DINAR
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.executor import SerialExecutor, make_executor, round_rng
from repro.fl.shm import ParallelExecutor, shm_available
from repro.fl.simulation import FederatedSimulation
from repro.fl.virtual import PersonalWeightsRegistry
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.compression import GradientCompression
from repro.privacy.defenses.ldp import LocalDP
from repro.privacy.defenses.secure_aggregation import SecureAggregation
from repro.privacy.defenses.wdp import WeakDP

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="parallel executor requires the fork start method")

DEFENSE_FACTORIES = {
    "none": lambda: None,
    "dinar": lambda: DINAR(),
    "gc": lambda: GradientCompression(),
    "sa": lambda: SecureAggregation(),
    "ldp": lambda: LocalDP(noise_multiplier=1.0),
    "wdp": lambda: WeakDP(),
}


@pytest.fixture
def small_split(rng):
    ds = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
    return split_for_membership(ds, rng)


def _run(small_split, tiny_model_factory, defense, **cfg_kwargs):
    defaults = dict(num_clients=4, rounds=3, local_epochs=2, lr=0.1,
                    batch_size=32, seed=5)
    defaults.update(cfg_kwargs)
    sim = FederatedSimulation(small_split, tiny_model_factory,
                              FLConfig(**defaults), defense)
    history = sim.run()
    return sim, history


def _snapshot(sim, history):
    """Every artifact a run produces, as plain comparable arrays."""
    return {
        "global": sim.server.global_weights.buffer.copy(),
        "personal": {
            cid: w.buffer.copy() for cid, w in sim.registry.items()
        },
        "transmitted": {
            cid: w.buffer.copy()
            for cid, w in sim.last_updates.items()
        },
        "accuracies": [
            (r.global_accuracy, r.mean_client_accuracy)
            for r in history.records
        ],
    }


# ----------------------------------------------------------------------
# the RNG scheme
# ----------------------------------------------------------------------

class TestRoundRng:
    def test_deterministic(self):
        a = round_rng(0, 3, 7).standard_normal(8)
        b = round_rng(0, 3, 7).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_across_cells(self):
        draws = {
            (r, c): tuple(round_rng(0, r, c).standard_normal(4))
            for r in range(3) for c in range(3)
        }
        assert len(set(draws.values())) == len(draws)

    def test_distinct_across_seeds(self):
        a = round_rng(0, 1, 1).standard_normal(4)
        b = round_rng(1, 1, 1).standard_normal(4)
        assert not np.array_equal(a, b)


# ----------------------------------------------------------------------
# executor selection and validation
# ----------------------------------------------------------------------

class TestSelection:
    def test_default_is_serial(self, small_split, tiny_model_factory):
        sim, _ = _run(small_split, tiny_model_factory, None, rounds=1)
        assert isinstance(sim.executor, SerialExecutor)

    def test_workers_selects_parallel(self):
        if not shm_available():
            pytest.skip("shared memory unavailable on this platform")
        config = FLConfig(workers=2)
        executor = make_executor([], Defense(), None, config)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 2
        executor.close()

    def test_falls_back_to_serial_when_shm_unavailable(
            self, monkeypatch):
        from repro.fl import shm
        monkeypatch.setattr(shm, "_AVAILABLE", False)
        with pytest.warns(RuntimeWarning, match="serially"):
            executor = make_executor([], Defense(), None,
                                     FLConfig(workers=2))
        assert isinstance(executor, SerialExecutor)

    def test_config_rejects_unknown_ipc(self):
        for ipc in ("pickle", "carrier-pigeon"):
            with pytest.raises(ValueError, match="ipc"):
                FLConfig(ipc=ipc)

    def test_one_worker_is_serial(self):
        executor = make_executor([], Defense(), None, FLConfig(workers=1))
        assert isinstance(executor, SerialExecutor)

    def test_parallel_rejects_single_worker(self):
        with pytest.raises(ValueError, match=">= 2 workers"):
            ParallelExecutor([], Defense(), None, workers=1)

    def test_config_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            FLConfig(workers=-1)

    def test_cli_workers_flag(self):
        from repro.cli import _build_parser
        from repro.data import available_datasets
        dataset = available_datasets()[0]
        args = _build_parser().parse_args(
            ["run", "--dataset", dataset, "--workers", "3"])
        assert args.workers == 3


# ----------------------------------------------------------------------
# serial vs parallel: bitwise identity
# ----------------------------------------------------------------------

class TestBitwiseIdentity:
    @pytest.mark.parametrize("defense_name", sorted(DEFENSE_FACTORIES),
                             ids=lambda name: f"{name}-shm")
    def test_full_run_identical(self, small_split, tiny_model_factory,
                                defense_name):
        make = DEFENSE_FACTORIES[defense_name]
        serial = _snapshot(*_run(small_split, tiny_model_factory,
                                 make(), workers=0))
        parallel = _snapshot(*_run(small_split, tiny_model_factory,
                                   make(), workers=2))
        assert np.array_equal(serial["global"], parallel["global"])
        assert serial["personal"].keys() == parallel["personal"].keys()
        for cid in serial["personal"]:
            assert np.array_equal(serial["personal"][cid],
                                  parallel["personal"][cid])
        assert serial["transmitted"].keys() \
            == parallel["transmitted"].keys()
        for cid in serial["transmitted"]:
            assert np.array_equal(serial["transmitted"][cid],
                                  parallel["transmitted"][cid])
        assert serial["accuracies"] == parallel["accuracies"]

    def test_partial_cohorts_identical(self, small_split,
                                       tiny_model_factory):
        """Client sampling + DINAR state survive the process boundary."""
        kwargs = dict(rounds=4, clients_per_round=2)
        serial = _snapshot(*_run(small_split, tiny_model_factory,
                                 DINAR(), workers=0, **kwargs))
        parallel = _snapshot(*_run(small_split, tiny_model_factory,
                                   DINAR(), workers=3, **kwargs))
        assert np.array_equal(serial["global"], parallel["global"])
        assert serial["transmitted"].keys() \
            == parallel["transmitted"].keys()
        for cid in serial["transmitted"]:
            assert np.array_equal(serial["transmitted"][cid],
                                  parallel["transmitted"][cid])

    def test_cost_meter_semantics_match(self, small_split,
                                        tiny_model_factory):
        """Same number of client rounds accounted under both executors."""
        serial_sim, _ = _run(small_split, tiny_model_factory, None,
                             workers=0)
        parallel_sim, _ = _run(small_split, tiny_model_factory, None,
                               workers=2)
        assert serial_sim.cost_meter.report.client_train_rounds \
            == parallel_sim.cost_meter.report.client_train_rounds == 12
        assert parallel_sim.cost_meter.report.client_train_seconds > 0


# ----------------------------------------------------------------------
# registry writes: each task writes its client's rows in place
# ----------------------------------------------------------------------

class TestRegistryWriter:
    def test_workers_never_put(self, small_split, tiny_model_factory,
                               monkeypatch, tmp_path):
        """No process copies a result into the registry: a forked
        worker inherits the spy, so a put in any process would log
        that process's pid — and the rows still match serial."""
        if not shm_available():
            pytest.skip("shared memory unavailable on this platform")
        log = tmp_path / "put_pids"
        put = PersonalWeightsRegistry.put

        def spy(self, client_id, buffer):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            put(self, client_id, buffer)

        monkeypatch.setattr(PersonalWeightsRegistry, "put", spy)
        sim, _ = _run(small_split, tiny_model_factory, DINAR(),
                      workers=2)
        assert isinstance(sim.executor, ParallelExecutor)
        assert not log.exists()
        serial, _ = _run(small_split, tiny_model_factory, DINAR(),
                         workers=0)
        for name, plane in serial.registry.planes().items():
            assert plane.tobytes() \
                == sim.registry.planes()[name].tobytes(), name

    def test_rows_assigned_to_exactly_the_completion_set(
            self, small_split, tiny_model_factory):
        """Rows go to the completing clients before the round, in
        completion order, and the round fills every plane of them."""
        sim = FederatedSimulation(
            small_split, tiny_model_factory,
            FLConfig(num_clients=4, rounds=1, local_epochs=1, seed=5,
                     completion_threshold=0.75), DINAR())
        record = sim.run_round(0)
        assert record.completed == [0, 1, 2]
        assert [sim.registry.row(cid) for cid in record.completed] \
            == [0, 1, 2]
        planes = sim.registry.planes()
        assert planes["ids"].tolist() == record.completed
        # DINAR derives personalized weights from the other two planes
        assert sorted(planes) == ["ids", "state", "uploads"]
        for name in ("uploads", "state"):
            assert np.isfinite(planes[name]).all(), name
        for cid in record.completed:
            assert np.isfinite(sim.registry[cid].buffer).all(), cid
        assert sim.last_updates.keys() == sim.registry.keys()


class TestDefenseStateRows:
    @pytest.mark.parametrize("workers", [0, 2],
                             ids=["serial", "shm"])
    def test_byzantine_dinar_restores_its_corrupted_layer(
            self, small_split, tiny_model_factory, workers):
        """DINAR stores layer p from the outbound weights, which a
        Byzantine client has already corrupted: its round-2
        personalized layer p is its round-1 *corrupted* layer, not
        the layer of its personal row."""
        if workers and not shm_available():
            pytest.skip("shared memory unavailable on this platform")
        from repro.fl.behavior import behavior_rng
        config = FLConfig(num_clients=4, rounds=2, local_epochs=1,
                          lr=0.1, batch_size=32, seed=5, workers=workers,
                          adversary="byzantine", adversary_fraction=0.5)
        sim = FederatedSimulation(small_split, tiny_model_factory,
                                  config, DINAR())
        start = sim.server.global_weights.copy()
        try:
            sim.run_round(0)
        finally:
            sim.executor.close()
        adversary = min(sim.behavior.adversaries)
        personal = sim.registry[adversary].copy()
        corrupted = sim.behavior.corrupt_update(
            adversary, personal, start, behavior_rng(5, 0, adversary))
        p = sim.defense.protected_indices(personal.layout.num_layers)[0]
        state = sim.registry.rows.state[sim.registry.row(adversary)]
        assert np.array_equal(state, corrupted.layer_flat(p))
        assert not np.array_equal(state, personal.layer_flat(p))
        received = sim.defense.on_receive_global(
            adversary, sim.server.global_weights, state)
        assert np.array_equal(received.layer_flat(p),
                              corrupted.layer_flat(p))


# ----------------------------------------------------------------------
# failure surfacing
# ----------------------------------------------------------------------

class _ExplodingDefense(Defense):
    """Raises a normal exception inside one client's upload hook."""

    def on_send_update(self, client_id, weights, global_weights,
                       num_samples, rng, state=None):
        if client_id == 1:
            raise ValueError("boom")
        return weights


class _DyingDefense(Defense):
    """Kills the worker process hard inside one client's upload hook."""

    def on_send_update(self, client_id, weights, global_weights,
                       num_samples, rng, state=None):
        if client_id == 1:
            os._exit(13)
        return weights


class TestFailures:
    def test_worker_exception_names_client_and_round(
            self, small_split, tiny_model_factory):
        with pytest.raises(RuntimeError,
                           match=r"client 1 failed in round 0"):
            _run(small_split, tiny_model_factory, _ExplodingDefense(),
                 workers=2, rounds=1)

    def test_worker_crash_surfaces_instead_of_hanging(
            self, small_split, tiny_model_factory):
        """A hard worker death must raise promptly, not deadlock."""
        with pytest.raises(RuntimeError, match="worker process died"):
            _run(small_split, tiny_model_factory, _DyingDefense(),
                 workers=2, rounds=1)

    def test_pool_recreated_after_close(self, small_split,
                                        tiny_model_factory):
        sim, _ = _run(small_split, tiny_model_factory, None, workers=2,
                      rounds=1)
        # run() closed the pool; another round must transparently
        # rebuild it and still produce results.
        record = sim.run_round(1)
        assert record is not None
        sim.executor.close()
