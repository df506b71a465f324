"""The parallel executor and its zero-copy shared-memory transport.

:class:`ParallelExecutor` fans a round's client tasks out across a
``fork``-based process pool.  Workers fork from the fully constructed
simulation, so datasets and models are inherited copy-on-write, and
every vector a round moves lives in a shared segment: per-client IPC
is ``O(descriptor)`` — a task, plus a :class:`ShmRound` naming the
segments, the registry geometry and the round's cohort.

* **Broadcast.**  The round's global buffer, written once per round;
  workers map it read-only (nothing in the round path mutates the
  received global in place) and the delta defenses read that view.
* **Registry.**  The executor's client registry allocates its planes
  here, one segment each: every client's personalized weights, last
  upload and defense state, which the worker training a client writes
  in place.  A grown registry moves to new segments between rounds; a
  worker drops any attachment the current descriptor does not name.
* **Sweep.**  The personalized-model sweep scores those rows in the
  workers, one task per worker of a descriptor and row indices, so the
  parent never maps the personal plane.

Segments are created with their pages reserved, so an exhausted
``/dev/shm`` fails with the requested bytes before a round submits a
task, not with a ``SIGBUS``.  ``close()`` unlinks every segment; the
parent's registry stays readable after it, as its views pin the
mapping.  Workers attach without registering with the
``resource_tracker``, so a worker exit cannot unlink segments the
parent owns.  No task outlives its round's stream, and serial and
parallel runs are trajectory-identical.
"""

from __future__ import annotations

import atexit
import errno
import multiprocessing
import os
import pickle
from collections.abc import Iterator, Sequence
from concurrent.futures import wait
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.fl.executor import (
    ClientRoundResult,
    ClientTask,
    HeapRows,
    RoundExecutor,
    execute_client_task,
    round_start_rng,
)
from repro.fl.virtual import RegistryRows
from repro.nn.store import Layout, WeightStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.data.synthetic import Dataset
    from repro.fl.behavior import ClientBehavior
    from repro.fl.costs import CostMeter
    from repro.fl.virtual import PersonalWeightsRegistry
    from repro.privacy.defenses.base import Defense

try:  # platforms without POSIX/System V shared memory lack the module
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - exotic platforms
    _shm = None


_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Lazily probed result of :func:`shm_available`.
_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether shared-memory segments can actually be created here.

    Probed once per process by creating and unlinking a 1-byte
    segment; containers that mount no ``/dev/shm`` (or deny shm_open)
    make ``make_executor`` fall back to the serial executor.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            _release(_create(1, "probe"))
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def _attach(name: str) -> Any:
    """Attach an existing segment without resource-tracker tracking.

    Python 3.13+ exposes ``track=False``; earlier versions register
    every attach with the resource tracker, so a worker exit would
    have the tracker unlink (or warn about) segments the parent still
    owns.  The fallback briefly no-ops ``register`` around the attach
    — workers are single-threaded, and only workers call this.
    """
    try:
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shm.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _create(nbytes: int, what: str) -> Any:
    """A new segment of ``nbytes`` with its tmpfs pages reserved.

    ``SharedMemory`` only truncates the file to size, so a segment
    larger than the free space of ``/dev/shm`` would kill the first
    process that touches a missing page with ``SIGBUS``.  Reserving
    the pages here turns that into an error before anything runs.
    """
    if _shm is None:  # pragma: no cover - guarded by shm_available
        raise RuntimeError("shared memory is unavailable here")
    nbytes = max(1, int(nbytes))
    try:
        segment = _shm.SharedMemory(create=True, size=nbytes)
        reserve = getattr(os, "posix_fallocate", None)
        try:
            if reserve is not None:
                reserve(segment._fd, 0, nbytes)
        except OSError as exc:
            # a file system that cannot reserve pages reserves lazily
            if exc.errno == errno.ENOSPC:
                _release(segment)
                raise
    except OSError as exc:
        raise RuntimeError(
            f"could not reserve {nbytes} bytes in /dev/shm for the "
            f"{what} ({exc.strerror or exc}); free space there or run "
            f"with workers=0") from exc
    return segment


def _view(segment: Any, size: int, dtype: np.dtype) -> np.ndarray:
    """``size`` values at the start of a segment, zero-copy.

    The array sits on a memoryview slice, whose buffer export pins
    the mapping: numpy holds none of its own, so closing the segment
    would otherwise unmap it under a live view.
    """
    dtype = np.dtype(dtype)
    return np.frombuffer(segment.buf[:size * dtype.itemsize], dtype=dtype)


def _unmap(segment: Any) -> None:
    """Close this process's handle on a segment."""
    try:
        segment.close()
    except BufferError:
        # A view outlived the segment's use and pins the mapping: drop
        # the segment's handle on the mmap, which unmaps when the last
        # view dies, and close the fd.
        segment._mmap = None
        segment.close()


def _release(segment: Any) -> None:
    """Unmap (when no view pins it) and unlink one owned segment."""
    _unmap(segment)
    try:
        segment.unlink()
    except FileNotFoundError:
        # Already unlinked (resource tracker raced us, or a second
        # close path); the goal state is reached.
        pass


@dataclass(frozen=True)
class ShmRound:
    """O(descriptor) handle to one round's shared memory: what travels
    with each task through the pool pipe instead of any vector."""

    #: Shared-memory segment holding the round's global flat buffer.
    weights_name: str
    #: Segments holding the client registry's planes.
    rows_names: tuple[str, str, str]
    #: Rows in each registry plane.
    capacity: int
    num_params: int
    dtype: str
    round_index: int
    #: The round's completion set: a worker replays the defense's
    #: ``on_round_start`` with it.
    cohort: tuple[int, ...]


class ShmChannel:
    """Parent-side owner of one executor's shared-memory segments: the
    broadcast (``num_params`` values, rewritten every round) and the
    registry's plane buffers :meth:`allocate` hands out.  Each is a
    (segment, array) pair."""

    def __init__(self) -> None:
        self._weights: tuple[Any, np.ndarray] | None = None
        self._rows: list[tuple[Any, np.ndarray]] = []

    def _new(self, size: int, dtype: np.dtype,
             what: str) -> tuple[Any, np.ndarray]:
        segment = _create(size * np.dtype(dtype).itemsize, what)
        # Cover executors that are never closed explicitly; close()
        # unregisters, so a clean close leaves no hook behind.
        atexit.unregister(self.close)
        atexit.register(self.close)
        return segment, _view(segment, size, dtype)

    def open(self, num_params: int, dtype: np.dtype) -> None:
        """Create the broadcast segment (idempotent)."""
        if self._weights is None:
            self._weights = self._new(num_params, dtype, "round broadcast")
        elif self._weights[1].shape != (num_params,) \
                or self._weights[1].dtype != np.dtype(dtype):
            raise ValueError(
                f"channel already open for {self._weights[1].size} "
                f"params ({self._weights[1].dtype}), asked to reopen for "
                f"{num_params} ({np.dtype(dtype)})")

    def close(self) -> None:
        """Unlink every segment (idempotent, crash-tolerant)."""
        owned = self._rows + ([self._weights] if self._weights else [])
        self._weights, self._rows = None, []
        for segment, _ in owned:
            try:
                _release(segment)
            except Exception:  # pragma: no cover - best effort
                pass
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    @property
    def is_open(self) -> bool:
        return self._weights is not None or bool(self._rows)

    def allocate(self, size: int, dtype: np.dtype) -> np.ndarray:
        """A registry plane buffer of ``size`` values in a new segment."""
        self._rows.append(self._new(size, dtype, "client registry"))
        return self._rows[-1][1]

    def release(self, buffer: np.ndarray) -> None:
        """Unlink the segment behind a buffer the registry replaced
        (a no-op for one this channel no longer owns)."""
        for entry in self._rows:
            if entry[1] is buffer:
                self._rows.remove(entry)
                return _release(entry[0])

    def holds(self, buffer: np.ndarray) -> bool:
        """Whether ``buffer`` lives in a segment workers can map."""
        return any(array is buffer for _, array in self._rows)

    def publish_round(self, buffer: np.ndarray,
                      registry: "PersonalWeightsRegistry",
                      round_index: int,
                      cohort: tuple[int, ...]) -> ShmRound:
        """Write one round's global buffer and return the descriptor
        tasks will carry (``registry``'s planes must live here)."""
        self.open(buffer.size, buffer.dtype)
        self._weights[1][:] = buffer
        return self.describe(registry, round_index, cohort)

    def describe(self, registry: "PersonalWeightsRegistry",
                 round_index: int = -1,
                 cohort: tuple[int, ...] = ()) -> ShmRound:
        """The descriptor naming the open broadcast and ``registry``'s
        planes (which must live here)."""
        segment, buffer = self._weights
        return ShmRound(
            weights_name=segment.name,
            rows_names=tuple(segment.name for plane in registry.buffers
                             for segment, array in self._rows
                             if array is plane),
            capacity=registry.capacity,
            num_params=buffer.size,
            dtype=buffer.dtype.name,
            round_index=int(round_index),
            cohort=tuple(int(cid) for cid in cohort),
        )


# ----------------------------------------------------------------------
# worker side: the current round's mappings
# ----------------------------------------------------------------------

#: name -> attached SharedMemory, for the last descriptor's segments.
_WORKER_SEGMENTS: dict[str, Any] = {}
#: The descriptor whose ``on_round_start`` this worker last replayed.
_WORKER_ROUND: ShmRound | None = None


def _worker_map(ref: ShmRound, state_width: int):
    """Attach the descriptor's segments, dropping any other: the
    read-only global buffer and the registry's planes."""
    current = (ref.weights_name, *ref.rows_names)
    for name in [name for name in _WORKER_SEGMENTS
                 if name not in current]:
        _unmap(_WORKER_SEGMENTS.pop(name))
    for name in current:
        if name not in _WORKER_SEGMENTS:
            _WORKER_SEGMENTS[name] = _attach(name)
    buffer = _view(_WORKER_SEGMENTS[ref.weights_name], ref.num_params,
                   ref.dtype)
    buffer.flags.writeable = False
    widths = (ref.num_params, ref.num_params, state_width)
    rows = RegistryRows(*(
        _view(_WORKER_SEGMENTS[name], ref.capacity * width,
              ref.dtype).reshape(ref.capacity, width)
        for name, width in zip(ref.rows_names, widths)))
    return buffer, rows


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

#: (clients, defense, layout, behavior, test) of the executor this
#: worker serves, inherited through fork.
_WORKER: tuple | None = None


def _bind_worker(*context: Any) -> None:
    global _WORKER
    _WORKER = context


def _run_in_worker(task: ClientTask, ref: ShmRound) -> ClientRoundResult:
    """Worker entry point: map the round's segments, replay the
    defense's round setup once per round, and run the serial path
    (:func:`execute_client_task`) on the shared registry rows."""
    global _WORKER_ROUND
    if _WORKER is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process has no bound executor; "
                           "the pool initializer did not run")
    clients, defense, layout, behavior, _ = _WORKER
    try:
        buffer, rows = _worker_map(ref, defense.state_width(layout))
        if ref != _WORKER_ROUND:
            defense.on_round_start(
                ref.round_index, list(ref.cohort),
                WeightStore(layout, buffer),
                round_start_rng(clients.config.seed, ref.round_index))
            _WORKER_ROUND = ref
        return execute_client_task(
            clients, defense, layout,
            replace(task, global_buffer=buffer), rows, behavior)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} failed in round "
            f"{task.round_index}: {exc!r}") from exc


def _score_in_worker(ref: ShmRound, rows: tuple[int, ...]) -> list[float]:
    """Worker entry point of the personalized-model sweep: score each
    named row of the personal plane on the inherited test set, then
    free the model's arena (the next round refills it)."""
    clients, defense, layout, _, test = _WORKER
    _, planes = _worker_map(ref, defense.state_width(layout))
    try:
        return [clients.evaluate_weights(
                    WeightStore(layout, planes.personal[row]),
                    test.x, test.y)
                for row in rows]
    finally:
        clients.eval_model().release_scratch()


class ParallelExecutor(RoundExecutor):
    """Fans client training out across a fork-based process pool.

    Workers fork from the fully constructed simulation (datasets and
    models are inherited, never pickled).  Each round's global buffer
    is published once into a :class:`ShmChannel`, which also holds the
    registry; every task of the round is submitted as a descriptor,
    and a worker writes the client's rows in place.  Results are
    yielded strictly in task order, so aggregation consumes updates
    in exactly the serial cohort order.
    """

    def __init__(self, clients: Any, defense: "Defense",
                 layout: Layout, workers: int,
                 behavior: "ClientBehavior | None" = None,
                 cost_meter: "CostMeter | None" = None,
                 test: "Dataset | None" = None) -> None:
        if workers < 2:
            raise ValueError(
                f"ParallelExecutor needs >= 2 workers, got {workers}; "
                "use SerialExecutor for single-process runs")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ParallelExecutor requires the 'fork' start method "
                "(unavailable on this platform); run with workers=0")
        self.workers = workers
        self.cost_meter = cost_meter
        self._pool: _PoolExecutor | None = None
        self._channel = ShmChannel()
        super().__init__(clients, defense, layout, behavior, test)

    @property
    def allocator(self) -> ShmChannel:
        """Registry buffers live in the channel's segments."""
        return self._channel

    # -- lifecycle -----------------------------------------------------
    def start(self) -> _PoolExecutor:
        """Fork the pool now, not at its first task (idempotent).

        A worker keeps every segment the parent mapped when it forked
        until the pool closes, so forking before the registry
        allocates lets a plane the registry grows out of be freed as
        soon as the parent releases it.  For the same reason a re-fork
        after :meth:`close` first moves the rows off the unlinked
        segments close() left them on, into private memory;
        :meth:`iter_round` moves them back into shared segments.
        """
        if self._pool is None:
            if not all(map(self._channel.holds, self.registry.buffers)):
                self.registry.relocate(self.registry.capacity, HeapRows())
            self._pool = _PoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_bind_worker,
                initargs=(self.clients, self.defense, self.layout,
                          self.behavior, self.test))
            # a pool forks its workers when tasks are submitted
            for future in [self._pool.submit(int)
                           for _ in range(self.workers)]:
                future.result()
        return self._pool

    def warm_up(self) -> None:
        if self.layout is not None:
            self._channel.open(self.layout.num_params,
                               self.layout.dtype)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._channel.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    def _crashed(self, where: str) -> RuntimeError:
        """Shut the broken pool down; the error names what it aborted."""
        self.close()
        return RuntimeError(
            f"a worker process died {where} (killed or crashed hard); "
            f"the pool has been shut down and the round aborted")

    # -- the round loop ------------------------------------------------
    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        """Stream results in task order over shared memory.

        The round's buffer is published once and every task is
        submitted as a descriptor; each result is yielded once its
        worker has written the client's rows.  If the consumer stops
        early or a task fails, the ``finally`` below cancels every
        unstarted task and waits for the running ones: no task
        outlives its round.
        """
        if not tasks:
            return
        pool = self.start()
        if not all(map(self._channel.holds, self.registry.buffers)):
            # the rows are in private memory (see start())
            self.registry.relocate(self.registry.capacity)
        first = tasks[0]
        ref = self._channel.publish_round(
            first.global_buffer, self.registry, first.round_index,
            first.cohort)
        # each result's three rows of the registry
        row_bytes = self.registry.nbytes // self.registry.capacity
        shared_bytes = first.global_buffer.nbytes
        pickled_bytes = 0
        futures: list[Any] = []
        try:
            for task in tasks:
                wire = (replace(task, global_buffer=None, cohort=()), ref)
                if not futures:
                    task_probe = len(pickle.dumps(
                        wire, protocol=_PICKLE_PROTOCOL))
                pickled_bytes += task_probe
                try:
                    futures.append(pool.submit(_run_in_worker, *wire))
                except BrokenProcessPool as exc:
                    # a worker died before this submission landed
                    raise self._crashed(
                        f"during round {task.round_index}") from exc
            result_probe: int | None = None
            for task, future in zip(tasks, futures):
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    raise self._crashed(
                        f"while training client {task.client_id} in "
                        f"round {task.round_index}") from exc
                if result_probe is None:
                    result_probe = len(pickle.dumps(
                        result, protocol=_PICKLE_PROTOCOL))
                pickled_bytes += result_probe
                shared_bytes += row_bytes
                yield result
        finally:
            for future in futures:
                future.cancel()
            wait(futures)
            if self.cost_meter is not None:
                self.cost_meter.record_ipc(pickled=pickled_bytes,
                                           shared=shared_bytes)

    def personal_accuracies(self, client_ids: Sequence[int]
                            ) -> list[float]:
        """The serial sweep's scores, computed in the pool's workers:
        one task per worker of the descriptor and a run of row indices,
        so the parent never reads the personal plane.  With the pool
        closed the sweep runs in-process, since a re-fork would first
        move every plane into private memory (:meth:`start`)."""
        if self._pool is None or self.test is None or not all(
                map(self._channel.holds, self.registry.buffers)):
            return super().personal_accuracies(client_ids)
        rows = [self.registry.row(cid) for cid in client_ids]
        self.warm_up()  # the descriptor names the broadcast too
        ref = self._channel.describe(self.registry)
        bounds = [len(rows) * k // self.workers
                  for k in range(self.workers + 1)]
        futures: list[Any] = []
        try:
            for start, stop in zip(bounds, bounds[1:]):
                if start < stop:
                    futures.append(self._pool.submit(
                        _score_in_worker, ref, tuple(rows[start:stop])))
            return [score for future in futures
                    for score in future.result()]
        except BrokenProcessPool as exc:
            raise self._crashed(
                "while scoring personalized models") from exc
        finally:
            for future in futures:
                future.cancel()
            wait(futures)
