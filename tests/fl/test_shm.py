"""Shared-memory IPC plane: channel semantics, lifecycle, leaks.

The transport's bitwise contract is pinned elsewhere (executor
identity matrix, trajectory pins, hypothesis parity); this module
covers what is *specific* to shared memory — segment lifecycle
(idempotent close, warm-up reuse, crash paths, registry growth and an
exhausted ``/dev/shm``), registry rows written in place by workers,
O(descriptor) wire payloads, and above all that no ``psm_*`` segment
outlives its executor in ``/dev/shm``.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import pathlib
import pickle
import time

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.executor import ClientTask
from repro.fl.shm import (
    ParallelExecutor,
    ShmChannel,
    ShmRound,
    _run_in_worker,
    shm_available,
)
from repro.fl.simulation import FederatedSimulation
from repro.fl.virtual import PersonalWeightsRegistry
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.compression import GradientCompression
from repro.privacy.defenses.make import make_defense_for_config

pytestmark = [
    pytest.mark.skipif(not shm_available(),
                       reason="shared memory unavailable"),
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="parallel executor requires the fork start method"),
]


def _psm_segments() -> set[str]:
    """Names of the POSIX shm segments currently live on this host."""
    try:
        return {entry.name for entry in pathlib.Path("/dev/shm").iterdir()
                if entry.name.startswith("psm_")}
    except (FileNotFoundError, NotADirectoryError):  # non-Linux
        return set()


@pytest.fixture
def no_leaked_segments():
    """Fail the test if it leaves new ``psm_*`` segments behind."""
    before = _psm_segments()
    yield
    leaked = _psm_segments() - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"


def _make_sim(defense=None, hidden=(16,), **cfg_kwargs):
    rng = np.random.default_rng(3)
    data = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
    split = split_for_membership(data, rng)
    defaults = dict(num_clients=4, rounds=2, local_epochs=1, lr=0.1,
                    batch_size=32, seed=5, workers=2)
    defaults.update(cfg_kwargs)
    from repro.models.fcnn import build_fcnn
    return FederatedSimulation(
        split, lambda r: build_fcnn(20, 4, r, hidden=hidden),
        FLConfig(**defaults), defense)


def _registry(channel, defense=None, clients=(0, 1)):
    """A small registry whose buffer lives in ``channel``, with rows
    for ``clients``."""
    from repro.models.fcnn import build_fcnn
    layout = build_fcnn(20, 4, np.random.default_rng(0),
                        hidden=(4,)).weight_layout()
    registry = PersonalWeightsRegistry(layout, defense, channel)
    registry.assign(clients)
    return registry


# ----------------------------------------------------------------------
# ShmChannel: broadcast and registry segments
# ----------------------------------------------------------------------

class TestChannel:
    def test_publish_roundtrips_buffer_and_state(self,
                                                 no_leaked_segments):
        """The descriptor is the whole of a round's shared state: it
        pickles to an equal handle that resolves the buffer."""
        channel = ShmChannel()
        try:
            registry = _registry(channel)
            buffer = np.arange(7, dtype=np.float64)
            ref = channel.publish_round(buffer, registry, 3, (1, 0))
            assert ref.num_params == 7
            assert ref.capacity == registry.capacity
            assert (ref.round_index, ref.cohort) == (3, (1, 0))
            assert pickle.loads(pickle.dumps(ref)) == ref
            from repro.fl import shm as shm_mod
            view, _ = shm_mod._worker_map(ref, 0)
            assert np.array_equal(view, buffer)
            assert not view.flags.writeable
            del view
        finally:
            channel.close()
            _reset_worker_caches()

    def test_generation_bumps_segment_names_stable(
            self, no_leaked_segments):
        """A round rewrites the same segments in place: consecutive
        rounds' descriptors name the same segments."""
        channel = ShmChannel()
        try:
            registry = _registry(channel)
            a = channel.publish_round(np.zeros(4), registry, 0, (0, 1))
            b = channel.publish_round(np.ones(4), registry, 0, (0, 1))
            assert b.weights_name == a.weights_name
            assert b.rows_names == a.rows_names
            assert b == a
            from repro.fl import shm as shm_mod
            assert np.array_equal(shm_mod._worker_map(a, 0)[0],
                                  np.ones(4))
        finally:
            channel.close()
            _reset_worker_caches()

    def test_rows_roundtrip_is_bitwise(self, no_leaked_segments):
        """What a worker writes into its mapped rows is what the
        parent's registry reads, bit for bit, and back."""
        channel = ShmChannel()
        try:
            defense = GradientCompression()
            registry = _registry(channel, defense, clients=(4, 9))
            ref = channel.publish_round(
                np.zeros(registry.layout.num_params), registry, 0, (4, 9))
            from repro.fl import shm as shm_mod
            _, rows = shm_mod._worker_map(ref, registry.state_width)
            values = np.random.default_rng(0).standard_normal(
                rows.personal.shape[1])
            row = registry.row(9)
            rows.personal[row] = values
            rows.uploads[row] = -values
            rows.state[row] = 2 * values
            assert registry[9].buffer.tobytes() == values.tobytes()
            assert registry.uploads[9].buffer.tobytes() \
                == (-values).tobytes()
            assert registry.rows.state[row].tobytes() \
                == (2 * values).tobytes()
            registry.rows.personal[registry.row(4)] = values
            assert rows.personal[registry.row(4)].tobytes() \
                == values.tobytes()
            del rows
        finally:
            channel.close()
            _reset_worker_caches()

    def test_registry_rows_outlive_close(self, no_leaked_segments):
        """Rows read after the executor closes still hold their
        values: the views pin the mapping, so close() only unlinks."""
        channel = ShmChannel()
        registry = _registry(channel)
        registry.rows.personal[registry.row(1)] = np.arange(
            registry.layout.num_params, dtype=float)
        held = registry[1]
        channel.close()
        assert not channel.is_open
        assert not any(map(channel.holds, registry.buffers))
        assert np.array_equal(held.buffer, np.arange(held.buffer.size))
        # a later round moves the rows into a segment workers can map
        registry.relocate(registry.capacity)
        assert all(map(channel.holds, registry.buffers))
        assert np.array_equal(registry[1].buffer, held.buffer)
        channel.close()

    def test_close_is_idempotent_and_unlinks(self):
        before = _psm_segments()
        channel = ShmChannel()
        channel.open(8, np.dtype(np.float64))
        channel.allocate(16, np.dtype(np.float64))
        names = _psm_segments() - before
        assert len(names) == 2
        channel.close()
        assert not names & _psm_segments()
        channel.close()  # second close is a no-op
        assert not channel.is_open

    def test_reopen_after_close_rejects_nothing(self,
                                                no_leaked_segments):
        channel = ShmChannel()
        channel.open(8, np.dtype(np.float64))
        channel.close()
        channel.open(8, np.dtype(np.float64))
        assert channel.is_open
        channel.close()

    def test_geometry_mismatch_rejected(self, no_leaked_segments):
        channel = ShmChannel()
        channel.open(8, np.dtype(np.float64))
        try:
            with pytest.raises(ValueError, match="already open"):
                channel.open(9, np.dtype(np.float64))
        finally:
            channel.close()

    def test_worker_maps_only_the_current_segments(
            self, no_leaked_segments):
        """A descriptor naming a grown registry's segment makes the
        worker drop its mapping of the old one."""
        channel = ShmChannel()
        try:
            registry = _registry(channel)
            from repro.fl import shm as shm_mod
            buffer = np.zeros(registry.layout.num_params)
            old = channel.publish_round(buffer, registry, 0, (0, 1))
            shm_mod._worker_map(old, 0)
            registry.assign(range(2, 20))  # grows into a new segment
            new = channel.publish_round(buffer, registry, 1, (0, 1))
            assert not set(new.rows_names) & set(old.rows_names)
            shm_mod._worker_map(new, 0)
            assert set(shm_mod._WORKER_SEGMENTS) \
                == {new.weights_name, *new.rows_names}
        finally:
            channel.close()
            _reset_worker_caches()


def _reset_worker_caches() -> None:
    """Drop the module-level worker caches the parent-side tests
    populated by calling worker helpers in-process."""
    from repro.fl import shm as shm_mod
    for segment in shm_mod._WORKER_SEGMENTS.values():
        shm_mod._unmap(segment)
    shm_mod._WORKER_SEGMENTS.clear()


# ----------------------------------------------------------------------
# executor lifecycle
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_run_then_close_leaves_no_segments(self,
                                               no_leaked_segments):
        sim = _make_sim()
        assert isinstance(sim.executor, ParallelExecutor)
        sim.run()  # run() closes the executor in its finally
        assert not sim.executor._channel.is_open

    def test_close_is_idempotent(self, no_leaked_segments):
        sim = _make_sim(rounds=1)
        sim.run()
        sim.executor.close()
        sim.executor.close()

    def test_warm_up_segments_survive_into_first_round(
            self, no_leaked_segments):
        sim = _make_sim(rounds=1)
        executor = sim.executor
        executor.warm_up()
        channel = executor._channel
        # the layout opened the channel ahead of time
        before = channel._weights[0].name
        sim.run_round(0)
        # the round reused the pre-opened broadcast segment
        assert channel._weights[0].name == before
        executor.close()

    def test_pool_and_channel_recreated_after_close(
            self, no_leaked_segments):
        sim = _make_sim(rounds=1)
        sim.run()  # closed everything
        record = sim.run_round(1)  # must transparently rebuild
        assert record is not None
        assert sim.executor._channel.is_open
        sim.executor.close()

    def test_worker_crash_leaves_no_segments(self,
                                             no_leaked_segments):
        from tests.fl.test_executor import _DyingDefense
        sim = _make_sim(defense=_DyingDefense(), rounds=1)
        with pytest.raises(RuntimeError, match="worker process died"):
            sim.run()
        assert not sim.executor._channel.is_open

    def test_worker_exception_leaves_no_segments(
            self, no_leaked_segments):
        from tests.fl.test_executor import _ExplodingDefense
        sim = _make_sim(defense=_ExplodingDefense(), rounds=1)
        with pytest.raises(RuntimeError, match="client 1 failed"):
            sim.run()
        assert not sim.executor._channel.is_open


# ----------------------------------------------------------------------
# wire payloads + accounting
# ----------------------------------------------------------------------

class TestPayloads:
    def test_stripped_task_is_descriptor_sized(self):
        """What actually crosses the pipe per task is tiny, no
        matter how large the model — the O(descriptor) contract."""
        ref = ShmRound(weights_name="psm_test",
                       rows_names=("psm_test2", "psm_test3", "psm_test4"),
                       capacity=64, personal=True,
                       num_params=10_000_000,
                       dtype="float64", round_index=2,
                       cohort=tuple(range(20)))
        task = ClientTask(round_index=2, client_id=7, global_buffer=None,
                          row=5)
        wire = (task, ref)  # the worker entry point's arguments
        assert len(pickle.dumps(wire, pickle.HIGHEST_PROTOCOL)) < 1024

    def test_shm_run_records_ipc_split(self, no_leaked_segments):
        sim = _make_sim()
        sim.run()
        report = sim.cost_meter.report
        assert report.ipc_bytes_shared > 0
        assert report.ipc_bytes_pickled > 0  # descriptors still pickle
        # the weight plane moved through segments, not the pipe:
        # per-client pickled payload is descriptor-sized.
        per_client = report.ipc_bytes_pickled \
            / report.clients_completed
        assert per_client < 8192

    def test_registry_puts_read_the_slab_in_place(
            self, monkeypatch, no_leaked_segments):
        """The parent copies no result row: every completion's
        personalized weights and upload are read in place from the
        shared rows its worker wrote, and nothing is put.  Where the
        registry derives personalized weights (no defense), they are
        the upload row itself."""
        put = PersonalWeightsRegistry.put
        puts = []

        def spy(self, client_id, buffer):
            puts.append(client_id)
            put(self, client_id, buffer)

        monkeypatch.setattr(PersonalWeightsRegistry, "put", spy)
        config = FLConfig(num_clients=4, rounds=2, seed=5)
        for name in ("none", "cdp"):
            sim = _make_sim(defense=make_defense_for_config(name, config))
            registry = sim.registry
            assert registry.stores_personal == (name == "cdp")
            try:
                for round_index in range(sim.config.rounds):
                    sim.run_round(round_index)
                    assert all(map(sim.executor._channel.holds,
                                   registry.buffers))
                    personal = registry.rows.uploads \
                        if registry.rows.personal is None \
                        else registry.rows.personal
                    for cid in registry.client_ids():
                        assert np.shares_memory(registry[cid].buffer,
                                                personal)
                        assert np.shares_memory(
                            registry.uploads[cid].buffer,
                            registry.rows.uploads)
            finally:
                sim.executor.close()
            assert sim.cost_meter.report.clients_completed > 0
            assert registry.client_ids() == list(range(4))
        assert puts == []

    def test_serial_run_records_no_ipc(self):
        sim = _make_sim(workers=0)
        sim.run()
        report = sim.cost_meter.report
        assert report.ipc_bytes_pickled == 0
        assert report.ipc_bytes_shared == 0
        assert report.ipc_summary() == "in-process (no executor IPC)"

    @pytest.mark.parametrize("name", ["cdp", "wdp", "gc", "ladp", "sa"])
    def test_shared_bytes_are_broadcast_plus_slabs(
            self, name, no_leaked_segments):
        """The global buffer is the only broadcast, whatever the
        defense: per round one global buffer goes down, per completion
        the client's rows — update, personalized weights and defense
        state — are written in place."""
        config = FLConfig(num_clients=4, rounds=2, seed=5)
        sim = _make_sim(defense=make_defense_for_config(name, config))
        sim.run()
        report = sim.cost_meter.report
        nbytes = sim.server.global_weights.nbytes
        state = sim.registry.state_width \
            * sim.server.global_weights.layout.dtype.itemsize
        assert report.ipc_bytes_shared == (
            sim.config.rounds * nbytes
            + (2 * nbytes + state) * report.clients_completed)

    @pytest.mark.parametrize("name", ["none", "dinar", "ldp", "wdp", "cdp",
                                      "gc", "sa", "ladp"])
    def test_pickled_bytes_ignore_defense_and_width(self, name):
        """No defense ships per-client state through the pipe: one
        round on 2 workers pickles the same bytes for every defense of
        one registry representation, at any model width."""
        config = FLConfig(num_clients=4, rounds=1, seed=5)
        pickled = set()
        for hidden in [(16,), (48,)]:
            sim = _make_sim(defense=make_defense_for_config(name, config),
                            hidden=hidden, rounds=1)
            sim.run()
            pickled.add(sim.cost_meter.report.ipc_bytes_pickled)
        # the bytes of the smaller width's run without a defense, or
        # with CDP where the registry stores personalized weights (the
        # descriptor then names one more segment)
        reference = _make_sim(
            defense=make_defense_for_config(
                "cdp" if sim.registry.stores_personal else "none",
                config),
            rounds=1)
        reference.run()
        assert pickled == {reference.cost_meter.report.ipc_bytes_pickled}


# ----------------------------------------------------------------------
# the round stream: exactly the completion set, nothing outlives it
# ----------------------------------------------------------------------

class _SlowUploadDefense(Defense):
    """Holds every client but 0 in its upload hook for a moment, so
    later tasks are still running when the first result arrives."""

    def on_send_update(self, client_id, weights, global_weights,
                       num_samples, rng, state=None):
        if client_id:
            time.sleep(0.05)
        return weights


def _spy_submits(executor) -> list:
    """Start the executor's pool and record every client-training
    future it submits (not the personalized-model sweep's)."""
    executor.start()
    pool = executor._pool
    submit = pool.submit
    futures = []

    def spy(fn, *args, **kwargs):
        future = submit(fn, *args, **kwargs)
        if fn is _run_in_worker:
            futures.append(future)
        return future

    pool.submit = spy
    return futures


class TestWindow:
    def test_submits_only_the_completion_set(self, no_leaked_segments):
        """At threshold 0.5 of 8 clients, 4 tasks run per round: no
        straggler is trained."""
        sim = _make_sim(num_clients=8, rounds=3,
                        completion_threshold=0.5)
        futures = _spy_submits(sim.executor)
        try:
            for round_index in range(3):
                before = len(futures)
                sim.run_round(round_index)
                assert len(futures) - before == 4
                assert all(future.done() for future in futures)
        finally:
            sim.executor.close()

    def test_early_close_leaves_no_pending_future(
            self, no_leaked_segments):
        """Closing the stream after its first result waits out the
        running tasks, and the next round still matches serial."""
        kwargs = dict(num_clients=8, rounds=1)
        sim = _make_sim(defense=_SlowUploadDefense(), **kwargs)
        futures = _spy_submits(sim.executor)
        try:
            buffer = sim.server.global_weights.buffer
            sim.registry.assign(range(8))
            stream = sim.executor.iter_round([
                ClientTask(round_index=0, client_id=cid,
                           global_buffer=buffer, row=sim.registry.row(cid))
                for cid in range(8)])
            assert next(stream).client_id == 0
            stream.close()
            assert len(futures) > 1
            assert all(future.done() for future in futures)
            sim.run_round(0)
        finally:
            sim.executor.close()
        serial = _make_sim(defense=_SlowUploadDefense(), workers=0,
                           **kwargs)
        serial.run()
        assert np.array_equal(serial.server.global_weights.buffer,
                              sim.server.global_weights.buffer)

    def test_workers_keep_no_client_defense_state(
            self, no_leaked_segments):
        """GC's residuals live in the registry's state rows, which the
        workers write in place: no result carries a vector, and no
        defense object holds a per-client value."""
        config = FLConfig(num_clients=8, rounds=3, seed=5)
        sim = _make_sim(defense=make_defense_for_config("gc", config),
                        num_clients=8, rounds=3)
        results = []
        iter_round = sim.executor.iter_round

        def spy(tasks):
            for result in iter_round(tasks):
                results.append(result)
                yield result

        sim.executor.iter_round = spy
        sim.run()
        assert len(results) == 24
        assert all(r.update_buffer is None and r.personal_buffer is None
                   for r in results)
        assert not [value for value in vars(sim.defense).values()
                    if isinstance(value, (dict, np.ndarray))]
        serial = _make_sim(defense=make_defense_for_config("gc", config),
                           num_clients=8, rounds=3, workers=0)
        serial.run()
        assert serial.registry.planes()["state"].tobytes() \
            == sim.registry.planes()["state"].tobytes()


# ----------------------------------------------------------------------
# slab backpressure under straggler-closing rounds
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_straggler_rounds_recycle_slabs(self, no_leaked_segments):
        """Early-closed rounds abandon in-flight tasks that still hold
        leased slabs; later rounds must reap them instead of starving,
        and the run must stay bitwise equal to serial."""
        kwargs = dict(num_clients=8, rounds=3,
                      completion_threshold=0.5)
        serial = _make_sim(workers=0, **kwargs)
        serial.run()
        parallel = _make_sim(workers=2, **kwargs)
        parallel.run()
        assert np.array_equal(
            serial.server.global_weights.buffer,
            parallel.server.global_weights.buffer)


# ----------------------------------------------------------------------
# registry growth between rounds
# ----------------------------------------------------------------------

class _SlowCompression(GradientCompression):
    """GC whose upload hook takes a moment, so every worker picks up
    a task of each round."""

    def on_send_update(self, client_id, weights, global_weights,
                       num_samples, rng, state=None):
        time.sleep(0.05)
        return super().on_send_update(client_id, weights, global_weights,
                                      num_samples, rng, state)


def _mapped_segments(pid: int) -> set[str]:
    """Names of the ``psm_*`` segments process ``pid`` maps."""
    maps = pathlib.Path(f"/proc/{pid}/maps").read_text()
    return {line.split("/dev/shm/")[1].split()[0]
            for line in maps.splitlines() if "/dev/shm/psm_" in line}


class TestRegistryGrowth:
    def test_growth_keeps_shm_bitwise_and_workers_map_current(
            self, no_leaked_segments):
        """New clients arrive every round (sample_fraction < 1): the
        registry grows into new segments between rounds, the run stays
        bitwise equal to serial, and no worker maps a registry segment
        the parent has released.  The pool forks before the first
        round's registry allocates, so no worker holds an inherited
        mapping of one."""
        kwargs = dict(num_clients=30, rounds=4, sample_fraction=0.2)
        serial = _make_sim(_SlowCompression(), workers=0, **kwargs)
        serial.run()
        parallel = _make_sim(_SlowCompression(), **kwargs)
        channel = parallel.executor._channel
        proc = pathlib.Path("/proc/self/maps").exists()
        rows_names = []
        try:
            for round_index in range(4):
                parallel.run_round(round_index)
                rows_names.append({segment.name
                                   for segment, _ in channel._rows})
                released = set().union(*rows_names) - rows_names[-1]
                for pid in parallel.executor._pool._processes:
                    if proc:
                        assert not _mapped_segments(pid) & released
        finally:
            parallel.executor.close()
        assert len({frozenset(names) for names in rows_names}) == 3, \
            "expected two growths"
        assert parallel.registry.capacity == serial.registry.capacity
        assert np.array_equal(serial.server.global_weights.buffer,
                              parallel.server.global_weights.buffer)
        for name, plane in serial.registry.planes().items():
            assert plane.tobytes() \
                == parallel.registry.planes()[name].tobytes(), name

    @pytest.mark.skipif(not pathlib.Path("/proc/self/maps").exists(),
                        reason="needs /proc/<pid>/maps")
    def test_refork_after_close_maps_only_held_segments(
            self, no_leaked_segments):
        """A simulation continued after run() closed its executor
        re-forks the pool; no new worker maps a registry segment the
        channel does not hold, such as the unlinked ones close() left
        the rows on."""
        # what this process maps already is no segment of this run
        foreign = _mapped_segments(os.getpid())
        sim = _make_sim(num_clients=30, sample_fraction=0.2)
        sim.run()
        channel = sim.executor._channel
        try:
            for round_index in range(2, 6):
                sim.run_round(round_index)
                held = {segment.name for segment, _ in channel._rows}
                held.add(channel._weights[0].name)
                for pid in sim.executor._pool._processes:
                    assert _mapped_segments(pid) - foreign <= held
        finally:
            sim.executor.close()

    def test_exhausted_dev_shm_fails_before_any_task(
            self, monkeypatch, no_leaked_segments):
        """When /dev/shm cannot hold the grown registry, the round
        raises an error naming it and the requested bytes before it
        submits a task, and no segment is left behind."""
        from repro.fl import shm as shm_mod
        sim = _make_sim(num_clients=20, rounds=2, sample_fraction=0.5)
        futures = _spy_submits(sim.executor)
        sim.run_round(0)
        submitted = len(futures)
        real = shm_mod._shm.SharedMemory
        requested = []

        def full(*args, create=False, size=0, **kwargs):
            if create:
                requested.append(size)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(*args, create=create, size=size, **kwargs)

        monkeypatch.setattr(shm_mod._shm, "SharedMemory", full)
        try:
            with pytest.raises(RuntimeError, match="/dev/shm") as error:
                sim.run_round(1)
            assert str(requested[0]) in str(error.value)
            assert len(futures) == submitted
        finally:
            sim.executor.close()


# ----------------------------------------------------------------------
# the personalized-model sweep runs in the pool's workers
# ----------------------------------------------------------------------

def _rss_shmem_kib() -> int | None:
    """This process's resident shared memory, where /proc reports it."""
    try:
        status = pathlib.Path("/proc/self/status").read_text()
    except FileNotFoundError:  # non-Linux
        return None
    for line in status.splitlines():
        if line.startswith("RssShmem:"):
            return int(line.split()[1])
    return None


class TestPersonalSweep:
    @pytest.mark.parametrize("name", ["none", "dinar", "ldp", "cdp"])
    def test_sweep_in_workers_equals_serial(self, name, monkeypatch,
                                            no_leaked_segments):
        """Evaluated every round, the 2-worker run records the serial
        run's client accuracies bit for bit, per client and in order,
        and its parent scores only the global model: every
        personalized model, derived or stored (CDP, at a noise level
        that leaves clients distinguishable), is scored in a worker."""
        from repro.fl.virtual import VirtualClientFleet
        evaluate = VirtualClientFleet.evaluate_weights
        calls = []

        def counting(self, *args):
            calls.append(os.getpid())
            return evaluate(self, *args)

        monkeypatch.setattr(VirtualClientFleet, "evaluate_weights",
                            counting)
        config = FLConfig(num_clients=5, rounds=3, seed=5)
        accuracies, scores = {}, {}
        for workers in (0, 2):
            calls.clear()
            defense = make_defense_for_config(
                name, config,
                **({"noise_multiplier": 0.1} if name == "cdp" else {}))
            sim = _make_sim(defense=defense, num_clients=5, rounds=3,
                            eval_every=1, workers=workers)
            try:
                for round_index in range(3):
                    sim.run_round(round_index)
                in_parent = calls.count(os.getpid())
                scores[workers] = sim.executor.personal_accuracies(
                    sim.registry.client_ids())
            finally:
                sim.executor.close()
            accuracies[workers] = [record.mean_client_accuracy
                                   for record in sim.history.records]
            assert in_parent == 3 * (1 if workers else 1 + 5)
        assert len(accuracies[0]) == 3 and len(set(scores[0])) > 1
        assert accuracies[2] == accuracies[0]
        assert scores[2] == scores[0]

    @pytest.mark.skipif(_rss_shmem_kib() is None,
                        reason="needs RssShmem in /proc/self/status")
    def test_parent_never_maps_the_personal_plane(
            self, no_leaked_segments):
        """On the purchase100 FCNN under CDP, whose registry stores a
        personal plane, the parent's resident shared memory grows by
        less than one personalized row over a 2-worker sweep (reading
        the rows in the parent maps all of them)."""
        from repro.bench.harness import make_model_factory
        from repro.data import load_dataset
        dataset = load_dataset("purchase100", 0, n_samples=600)
        split = split_for_membership(dataset, np.random.default_rng(0))
        config = FLConfig(num_clients=4, rounds=2, eval_every=2,
                          local_epochs=1, batch_size=64, seed=0,
                          workers=2)
        sim = FederatedSimulation(split, make_model_factory("purchase100"),
                                  config,
                                  make_defense_for_config("cdp", config))
        assert sim.registry.stores_personal
        try:
            assert sim.run_round(0) is None  # trained, not evaluated
            before = _rss_shmem_kib()
            accuracy = sim.mean_client_accuracy()
            grown = (_rss_shmem_kib() - before) * 1024
        finally:
            sim.executor.close()
        row = sim.registry.rows.personal[0].nbytes
        assert grown < row, (grown, row)
        assert sim.mean_client_accuracy() == accuracy

    def test_closed_pool_sweeps_in_process(self, no_leaked_segments):
        """After close() the sweep runs in the parent, returns the
        value the open pool gave, and forks no worker."""
        sim = _make_sim(num_clients=5, rounds=2)
        sim.run()  # the last round's sweep ran in the workers
        assert sim.executor._pool is None
        assert sim.mean_client_accuracy() \
            == sim.history.final_client_accuracy
        assert sim.executor._pool is None
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_sweep_task_is_descriptor_sized(self, no_leaked_segments):
        """A sweep task carries the registry's descriptor and
        ``(client, row)`` pairs: no weight row or test feature crosses
        the pipe, however wide the model."""
        from repro.fl.shm import _score_in_worker
        sim = _make_sim(num_clients=5, rounds=1, hidden=(256,))
        sim.executor.start()
        pool = sim.executor._pool
        submit = pool.submit
        wires = []

        def spy(fn, *args, **kwargs):
            if fn is _score_in_worker:
                wires.append(args)
            return submit(fn, *args, **kwargs)

        pool.submit = spy
        try:
            sim.run_round(0)
        finally:
            sim.executor.close()
        assert len(wires) == sim.executor.workers
        assert sorted(pair for _, pairs in wires for pair in pairs) \
            == [(cid, sim.registry.row(cid)) for cid in range(5)]
        assert sorted(row for _, pairs in wires for _, row in pairs) \
            == list(range(5))
        assert sim.registry.rows.uploads[0].nbytes > 8192
        for wire in wires:
            assert isinstance(wire[0], ShmRound)
            assert len(pickle.dumps(wire, pickle.HIGHEST_PROTOCOL)) < 1024
