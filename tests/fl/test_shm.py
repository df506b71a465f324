"""Shared-memory IPC plane: channel semantics, lifecycle, leaks.

The transport's bitwise contract is pinned elsewhere (executor
identity matrix, trajectory pins, hypothesis parity); this module
covers what is *specific* to shared memory — segment lifecycle
(idempotent close, warm-up reuse, crash paths), the slab-ring lease
discipline, O(descriptor) wire payloads, and above all that no
``psm_*`` segment outlives its executor in ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import pickle

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
        channel = ShmChannel(slots=3)
        try:
            buffer = np.arange(7, dtype=np.float64)
            state = {"round": 1, "mask": np.arange(4.0)}
            ref = channel.publish_round(buffer, state)
            assert ref.generation == 1
            assert ref.num_params == 7
            assert ref.slots == 3
            from repro.fl import shm as shm_mod
            view, decoded = shm_mod._worker_resolve(ref)
            assert np.array_equal(view, buffer)
            assert not view.flags.writeable
            assert decoded["round"] == 1
            assert np.array_equal(decoded["mask"], state["mask"])
        finally:
            channel.close()
            _reset_worker_caches()

    def test_generation_bumps_segment_names_stable(
            self, no_leaked_segments):
        channel = ShmChannel(slots=2)
        try:
            a = channel.publish_round(np.zeros(4), None)
            b = channel.publish_round(np.ones(4), None)
            assert b.generation == a.generation + 1
            assert b.weights_name == a.weights_name
            assert b.slabs_name == a.slabs_name
            assert a.state_name is None and a.state_len == 0
        finally:
            channel.close()

    def test_state_segment_grows_by_recreation(self,
                                               no_leaked_segments):
        channel = ShmChannel(slots=2)
        try:
            small = channel.publish_round(np.zeros(4), b"x")
            big = channel.publish_round(np.zeros(4),
                                        bytes(1 << 16))
            assert big.state_name != small.state_name
            assert big.state_len > small.state_len
            assert small.state_name not in _psm_segments()
        finally:
            channel.close()

    def test_slab_lease_recycle_discipline(self, no_leaked_segments):
        channel = ShmChannel(slots=2)
        channel.open(5, np.dtype(np.float64))
        try:
            first, second = channel.lease(), channel.lease()
            assert {first, second} == {0, 1}
            assert channel.lease() is None  # exhausted
            channel.recycle(second)
            assert channel.free_slabs == 1
            with pytest.raises(ValueError, match="twice"):
                channel.recycle(second)
            with pytest.raises(ValueError, match="out of range"):
                channel.recycle(7)
        finally:
            channel.close()

    def test_slab_roundtrip_is_bitwise(self, no_leaked_segments):
        channel = ShmChannel(slots=2)
        channel.open(6, np.dtype(np.float64))
        try:
            update = np.random.default_rng(0).standard_normal(6)
            personal = np.random.default_rng(1).standard_normal(6)
            channel.write_slab(1, update, personal)
            got_update, got_personal = channel.read_slab(1)
            assert np.array_equal(got_update, update)
            assert np.array_equal(got_personal, personal)
            # parent-owned copies: recycling cannot corrupt them
            channel.write_slab(1, personal, update)
            assert np.array_equal(got_update, update)
        finally:
            channel.close()

    def test_close_is_idempotent_and_unlinks(self):
        channel = ShmChannel(slots=2)
        channel.publish_round(np.zeros(8), {"s": 1})
        names = channel.segment_names()
        assert all(name in _psm_segments() for name in names)
        channel.close()
        assert all(name not in _psm_segments() for name in names)
        channel.close()  # second close is a no-op
        assert not channel.is_open

    def test_reopen_after_close_rejects_nothing(self,
                                                no_leaked_segments):
        channel = ShmChannel(slots=2)
        channel.publish_round(np.zeros(8), None)
        channel.close()
        ref = channel.publish_round(np.ones(8), None)
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
    if shm_mod._WORKER_STATE_SEGMENT is not None:
        try:
            shm_mod._WORKER_STATE_SEGMENT[1].close()
        except Exception:
            pass
    shm_mod._WORKER_STATE_SEGMENT = None
    shm_mod._WORKER_ROUND_STATE = None


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
        before = executor._channel.segment_names()
        assert before  # the layout opened the channel ahead of time
        sim.run_round(0)
        # the round reused the pre-opened weight + slab segments
        assert executor._channel.segment_names()[:2] == before[:2]
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
                       state_name=None, state_len=0, generation=3,
                       num_params=10_000_000, dtype="float64", slots=5)
        task = ClientTask(round_index=2, client_id=7,
                          global_buffer=None, round_state=None)
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
