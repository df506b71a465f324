"""Shared-memory IPC plane: channel semantics, lifecycle, leaks.

The transport's bitwise contract is pinned elsewhere (executor
identity matrix, trajectory pins, hypothesis parity); this module
covers what is *specific* to shared memory — segment lifecycle
(idempotent close, warm-up reuse, crash paths), the in-order slab
window, O(descriptor) wire payloads, and above all that no ``psm_*``
segment outlives its executor in ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
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
    shm_available,
)
from repro.fl.simulation import FederatedSimulation
from repro.privacy.defenses.base import Defense

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


def _make_sim(defense=None, **cfg_kwargs):
    rng = np.random.default_rng(3)
    data = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
    split = split_for_membership(data, rng)
    defaults = dict(num_clients=4, rounds=2, local_epochs=1, lr=0.1,
                    batch_size=32, seed=5, workers=2)
    defaults.update(cfg_kwargs)
    from repro.models.fcnn import build_fcnn
    return FederatedSimulation(
        split, lambda r: build_fcnn(20, 4, r, hidden=(16,)),
        FLConfig(**defaults), defense)


# ----------------------------------------------------------------------
# ShmChannel: segments, broadcast, slab ring
# ----------------------------------------------------------------------

class TestChannel:
    def test_publish_roundtrips_buffer_and_state(self,
                                                 no_leaked_segments):
        """The descriptor is the whole of a round's broadcast state:
        it pickles to an equal handle that resolves the buffer."""
        channel = ShmChannel(slots=3)
        try:
            buffer = np.arange(7, dtype=np.float64)
            ref = channel.publish_round(buffer)
            assert ref.num_params == 7
            assert ref.slots == 3
            assert pickle.loads(pickle.dumps(ref)) == ref
            from repro.fl import shm as shm_mod
            view = shm_mod._worker_resolve(ref)
            assert np.array_equal(view, buffer)
            assert not view.flags.writeable
        finally:
            channel.close()
            _reset_worker_caches()

    def test_generation_bumps_segment_names_stable(
            self, no_leaked_segments):
        """A round rewrites the same segments in place: the descriptor
        carries no generation, so consecutive rounds' are equal."""
        channel = ShmChannel(slots=2)
        try:
            a = channel.publish_round(np.zeros(4))
            b = channel.publish_round(np.ones(4))
            assert b.weights_name == a.weights_name
            assert b.slabs_name == a.slabs_name
            assert b == a
            from repro.fl import shm as shm_mod
            assert np.array_equal(shm_mod._worker_resolve(a), np.ones(4))
        finally:
            channel.close()
            _reset_worker_caches()

    def test_slab_roundtrip_is_bitwise(self, no_leaked_segments):
        channel = ShmChannel(slots=2)
        channel.open(6, np.dtype(np.float64))
        try:
            ref = channel.publish_round(np.zeros(6))
            update = np.random.default_rng(0).standard_normal(6)
            personal = np.random.default_rng(1).standard_normal(6)
            from repro.fl import shm as shm_mod
            shm_mod._worker_write_slab(ref, 1, update, personal)
            got_update, got_personal = channel.read_slab(1)
            assert np.array_equal(got_update, update)
            assert np.array_equal(got_personal, personal)
            assert not got_update.flags.writeable
            # views, not copies: the slab's next write shows through,
            # which is why a slab is reused only after its reader
            shm_mod._worker_write_slab(ref, 1, personal, update)
            assert np.array_equal(got_update, personal)
            del got_update, got_personal
        finally:
            channel.close()
            _reset_worker_caches()

    def test_slab_views_outlive_close(self, no_leaked_segments):
        """A result held past the executor's close still reads its
        rows: the views pin the mapping, so close() only unlinks."""
        channel = ShmChannel(slots=2)
        channel.publish_round(np.zeros(4))
        channel._slabs.buf[:32] = np.arange(4.0).tobytes()
        update, personal = channel.read_slab(0)
        channel.close()
        assert not channel.is_open
        assert np.array_equal(update, np.arange(4.0))
        assert np.array_equal(personal, np.zeros(4))

    def test_close_is_idempotent_and_unlinks(self):
        before = _psm_segments()
        channel = ShmChannel(slots=2)
        channel.publish_round(np.zeros(8))
        names = _psm_segments() - before
        assert names
        channel.close()
        assert not names & _psm_segments()
        channel.close()  # second close is a no-op
        assert not channel.is_open

    def test_reopen_after_close_rejects_nothing(self,
                                                no_leaked_segments):
        channel = ShmChannel(slots=2)
        channel.publish_round(np.zeros(8))
        channel.close()
        ref = channel.publish_round(np.ones(8))
        assert channel.is_open
        assert ref.num_params == 8
        channel.close()

    def test_geometry_mismatch_rejected(self, no_leaked_segments):
        channel = ShmChannel(slots=2)
        channel.open(8, np.dtype(np.float64))
        try:
            with pytest.raises(ValueError, match="already open"):
                channel.open(9, np.dtype(np.float64))
        finally:
            channel.close()


def _reset_worker_caches() -> None:
    """Drop the module-level worker caches the parent-side tests
    populated by calling worker helpers in-process."""
    from repro.fl import shm as shm_mod
    for segment in shm_mod._WORKER_SEGMENTS.values():
        try:
            segment.close()
        except Exception:
            pass
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
        before = (channel._weights.name, channel._slabs.name)
        sim.run_round(0)
        # the round reused the pre-opened weight + slab segments
        assert (channel._weights.name, channel._slabs.name) == before
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
        ref = ShmRound(weights_name="psm_test", slabs_name="psm_test2",
                       num_params=10_000_000, dtype="float64", slots=5)
        task = ClientTask(round_index=2, client_id=7, global_buffer=None)
        wire = (task, ref, 1)  # the worker entry point's arguments
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
        two rows come back."""
        from repro.privacy.defenses.make import make_defense_for_config
        config = FLConfig(num_clients=4, rounds=2, seed=5)
        sim = _make_sim(defense=make_defense_for_config(name, config))
        sim.run()
        report = sim.cost_meter.report
        nbytes = sim.server.global_weights.nbytes
        assert report.ipc_bytes_shared == (
            sim.config.rounds * nbytes
            + 2 * nbytes * report.clients_completed)

    def test_registry_puts_read_the_slab_in_place(
            self, monkeypatch, no_leaked_segments):
        """The parent copies each result row once: straight from the
        slab into the registry."""
        from repro.fl.virtual import PersonalWeightsRegistry
        sim = _make_sim()
        put = PersonalWeightsRegistry.put
        sources = []

        def spy(self, client_id, buffer):
            slabs = np.frombuffer(sim.executor._channel._slabs.buf,
                                  dtype=np.uint8)
            sources.append(np.shares_memory(buffer, slabs))
            del slabs
            put(self, client_id, buffer)

        monkeypatch.setattr(PersonalWeightsRegistry, "put", spy)
        sim.run()
        completed = sim.cost_meter.report.clients_completed
        assert sources == [True] * (2 * completed)


# ----------------------------------------------------------------------
# the in-order window: exactly the completion set, nothing outlives it
# ----------------------------------------------------------------------

class _SlowUploadDefense(Defense):
    """Holds every client but 0 in its upload hook for a moment, so
    later tasks are still running when the first result arrives."""

    def on_send_update(self, client_id, weights, global_weights,
                       num_samples, rng):
        if client_id:
            time.sleep(0.05)
        return weights


def _spy_submits(executor) -> list:
    """Warm the executor's pool and record every future it submits."""
    executor.warm_up()
    pool = executor._pool
    submit = pool.submit
    futures = []

    def spy(*args, **kwargs):
        future = submit(*args, **kwargs)
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
            stream = sim.executor.iter_round([
                ClientTask(round_index=0, client_id=cid,
                           global_buffer=buffer)
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
        """A worker reports only the state of the client it just ran:
        GC's residuals of earlier tasks are not left behind."""
        from repro.privacy.defenses.make import make_defense_for_config
        config = FLConfig(num_clients=8, rounds=3, seed=5)
        sim = _make_sim(defense=make_defense_for_config("gc", config),
                        num_clients=8, rounds=3)
        reported = []
        iter_round = sim.executor.iter_round

        def spy(tasks):
            for result in iter_round(tasks):
                reported.append(result.defense_state_bytes)
                yield result

        sim.executor.iter_round = spy
        sim.run()
        residual = max(r.nbytes for r in sim.defense._residuals.values())
        assert len(reported) == 24
        assert 0 < max(reported) <= residual


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
