"""The parallel executor and its zero-copy shared-memory transport.

:class:`ParallelExecutor` fans a round's client tasks out across a
``fork``-based process pool.  Workers fork from the fully constructed
simulation, so datasets and models are inherited copy-on-write, and
the weight plane is one process-invariant contiguous buffer, so no
weight vector ever crosses the pool pipe.  Per-client IPC is
``O(descriptor)``:

**Down-link (broadcast segment).**  One ``multiprocessing.
shared_memory`` segment per executor holds the round's global buffer.
The parent writes it once per round; tasks carry only a tiny
:class:`ShmRound` descriptor ``(segment names, geometry)``.  Workers
map the segment and wrap it in a *read-only* zero-copy view — safe
because the serial executor already hands every task of a round the
very same buffer object, so nothing in the round path mutates the
received global in place (DINAR copies before personalizing,
``set_store`` copies in).  It is the only thing broadcast: defenses
that transform a round delta read this same view as their
``global_weights`` hook argument.

**Up-link (result slab ring).**  A ring of ``workers + 1``
preallocated slabs — two rows of ``num_params`` each — receives every
client's ``update_buffer`` / ``personal_buffer`` directly from the
worker; the result that travels back through the pipe carries neither
vector.  Task ``i`` of a round writes slab ``i % (workers + 1)``, and
the ring is an in-order window: the parent yields results in task
order with both buffers set to read-only views of the slab rows, and
submits the task that reuses a slab only when the consumer asks for
the result after the one reading it — the borrowing contract of
:class:`~repro.fl.executor.ClientRoundResult`, so the consumer's
registry ``put`` is the one copy the parent makes of a row.

**Lifecycle.**  ``ShmChannel.close()`` is idempotent and unlinks every
segment; an ``atexit`` hook covers channels that are never closed
explicitly.  Workers attach segments *without* registering them with
the ``resource_tracker`` — on Python < 3.13 an attach re-registers the
name, and a worker that later exits (or crashes) would have the
tracker unlink segments the parent still owns (the classic
double-unlink).  Overwriting the broadcast is safe: a round's stream
does not end — exhausted, closed early or failed — before every task
it submitted has finished or been cancelled, so no task reads round
``g``'s broadcast once round ``g+1`` publishes.

The transport is **bitwise invisible**: the mapped view holds the
identical float64/float32 values the parent published, and every
per-cell RNG stream is untouched — serial and parallel runs are
trajectory-identical (pinned by the golden fixtures and
hypothesis-tested across worker counts and defenses).
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
from collections import deque
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
    RoundExecutor,
    _stamp_materializations,
    execute_client_task,
)
from repro.nn.store import Layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.fl.behavior import ClientBehavior
    from repro.fl.costs import CostMeter
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
        if _shm is None:
            _AVAILABLE = False
        else:
            try:
                probe = _shm.SharedMemory(create=True, size=1)
                probe.close()
                probe.unlink()
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


@dataclass(frozen=True)
class ShmRound:
    """O(descriptor) handle to one round's shared-memory broadcast.

    This — not the weight vectors — is what travels with each task
    through the pool pipe.
    """

    #: Segment holding the round's global flat buffer.
    weights_name: str
    #: Segment holding the result slab ring.
    slabs_name: str
    num_params: int
    dtype: str
    #: Slab count of the ring (ring geometry, for the worker's view).
    slots: int


class ShmChannel:
    """Parent-side owner of one executor's shared-memory segments.

    Two segments, both created lazily on first use and owned (and
    unlinked) exclusively by the parent:

    * ``weights`` — ``num_params`` values; rewritten every round;
    * ``slabs``   — ``slots`` result slabs of 2 rows x ``num_params``.

    Which task writes which slab is the executor's window, not channel
    state; ``read_slab`` views both rows of one slab in place.
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError(f"slab ring needs >= 1 slot, got {slots}")
        self.slots = slots
        self._weights: Any = None
        self._slabs: Any = None
        self._num_params: int | None = None
        self._dtype: np.dtype | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, num_params: int, dtype: np.dtype) -> None:
        """Create the weights + slab segments (idempotent)."""
        if self._weights is not None:
            if num_params != self._num_params \
                    or np.dtype(dtype) != self._dtype:
                raise ValueError(
                    f"channel already open for {self._num_params} "
                    f"params ({self._dtype}), asked to reopen for "
                    f"{num_params} ({np.dtype(dtype)})")
            return
        if _shm is None:  # pragma: no cover - guarded by shm_available
            raise RuntimeError("shared memory is unavailable here")
        self._num_params = int(num_params)
        self._dtype = np.dtype(dtype)
        itemsize = self._dtype.itemsize
        self._weights = _shm.SharedMemory(
            create=True, size=max(1, self._num_params * itemsize))
        self._slabs = _shm.SharedMemory(
            create=True,
            size=max(1, self.slots * 2 * self._num_params * itemsize))
        self._closed = False
        # Cover executors that are never closed explicitly; close()
        # unregisters, so a clean close leaves no hook behind.
        atexit.register(self.close)

    def close(self) -> None:
        """Unlink every segment (idempotent, crash-tolerant)."""
        if self._closed:
            return
        self._closed = True
        for segment in (self._weights, self._slabs):
            if segment is None:
                continue
            try:
                segment.close()
            except BufferError:
                # A slab row view outlived the round and pins the
                # mapping (see read_slab): drop the segment's handle
                # on the mmap, which unmaps when the last view dies,
                # and close the fd.
                segment._mmap = None
                segment.close()
            except Exception:  # pragma: no cover - best effort
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                # Already unlinked (resource tracker raced us, or a
                # second close path); the goal state is reached.
                pass
            except Exception:  # pragma: no cover - best effort
                pass
        self._weights = self._slabs = None
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    @property
    def is_open(self) -> bool:
        return self._weights is not None

    # ------------------------------------------------------------------
    # down-link: per-round broadcast
    # ------------------------------------------------------------------
    def publish_round(self, buffer: np.ndarray) -> ShmRound:
        """Write one round's global buffer and return the descriptor
        tasks will carry."""
        buffer = np.ascontiguousarray(buffer)
        self.open(buffer.size, buffer.dtype)
        view = np.ndarray((self._num_params,), dtype=self._dtype,
                          buffer=self._weights.buf)
        view[:] = buffer
        del view  # drop the buffer export so close() stays legal
        return ShmRound(
            weights_name=self._weights.name,
            slabs_name=self._slabs.name,
            num_params=self._num_params,
            dtype=self._dtype.name,
            slots=self.slots,
        )

    # ------------------------------------------------------------------
    # up-link: the result slab ring
    # ------------------------------------------------------------------
    def read_slab(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of one slab's ``(update, personal)`` rows.

        No copy is made: the views are valid until a later task writes
        the slab, and the simulation's registry ``put`` of each row is
        the one copy the parent makes of it.  The views sit on a
        memoryview slice, whose buffer export pins the mapping: numpy
        holds none of its own, so ``close()`` would otherwise unmap the
        segment under a view that outlived the round.
        """
        if self._slabs is None:
            raise RuntimeError("channel is not open")
        if not 0 <= index < self.slots:
            raise ValueError(f"slab index {index} out of range "
                             f"[0, {self.slots})")
        nbytes = 2 * self._num_params * self._dtype.itemsize
        window = self._slabs.buf[index * nbytes:(index + 1) * nbytes]
        rows = np.frombuffer(window, dtype=self._dtype).reshape(2, -1)
        rows.flags.writeable = False
        return rows[0], rows[1]


# ----------------------------------------------------------------------
# worker-side attachment cache
# ----------------------------------------------------------------------

#: name -> attached SharedMemory, for the per-executor-constant
#: weights/slab segments (one pool serves exactly one executor, so the
#: cache never grows past a handful of names).
_WORKER_SEGMENTS: dict[str, Any] = {}


def _worker_segment(name: str) -> Any:
    segment = _WORKER_SEGMENTS.get(name)
    if segment is None:
        segment = _attach(name)
        _WORKER_SEGMENTS[name] = segment
    return segment


def _worker_resolve(ref: ShmRound) -> np.ndarray:
    """Map one round's broadcast: the read-only global buffer view."""
    segment = _worker_segment(ref.weights_name)
    buffer = np.ndarray((ref.num_params,), dtype=np.dtype(ref.dtype),
                        buffer=segment.buf)
    buffer.flags.writeable = False
    return buffer


def _worker_write_slab(ref: ShmRound, index: int, update: np.ndarray,
                       personal: np.ndarray) -> None:
    """Write one result's two rows into its slab."""
    segment = _worker_segment(ref.slabs_name)
    dtype = np.dtype(ref.dtype)
    offset = index * 2 * ref.num_params * dtype.itemsize
    rows = np.ndarray((2, ref.num_params), dtype=dtype,
                      buffer=segment.buf, offset=offset)
    rows[0] = update
    rows[1] = personal
    del rows


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

@dataclass
class _WorkerContext:
    """Per-process replica of the simulation's client-side objects.

    ``clients`` is a provider (anything with ``materialize``)
    inherited via fork; each worker rebinds its *own* copy-on-write
    training client, so every process holds one training model.
    """

    clients: Any
    defense: Any
    layout: Layout
    behavior: Any = None


#: Bound once per worker process by the pool initializer.
_WORKER_CONTEXT: _WorkerContext | None = None


def _bind_worker_context(context: _WorkerContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_in_worker(task: ClientTask, ref: ShmRound,
                   slab: int) -> ClientRoundResult:
    """Worker entry point: one client's round over shared memory.

    Maps the round's broadcast (the read-only global buffer), runs the
    same :func:`execute_client_task` path as the serial executor, then
    writes the two result vectors into the task's slab so only a
    descriptor travels back through the pipe.
    """
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process has no bound context; "
                           "the pool initializer did not run")
    try:
        buffer = _worker_resolve(ref)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} could not map the round "
            f"{task.round_index} shared-memory broadcast: "
            f"{exc!r}") from exc
    task = replace(task, global_buffer=buffer)
    try:
        result = execute_client_task(
            context.clients.materialize(task.client_id),
            context.defense, context.layout, task, context.behavior)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} failed in round "
            f"{task.round_index}: {exc!r}") from exc
    _stamp_materializations(result, context.clients)
    # The parent holds every client's defense state; the worker keeps
    # none of it past the task.
    context.defense.import_client_state(task.client_id, None)
    try:
        _worker_write_slab(ref, slab, result.update_buffer,
                           result.personal_buffer)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} failed writing its round "
            f"{task.round_index} result slab: {exc!r}") from exc
    result.update_buffer = None
    result.personal_buffer = None
    return result


class ParallelExecutor(RoundExecutor):
    """Fans client training out across a fork-based process pool.

    Workers fork from the fully constructed simulation (datasets and
    models are inherited, never pickled).  Each round's global buffer
    is published once into a :class:`ShmChannel`; tasks cross the pool
    pipe as descriptors and task ``i``'s result comes back through slab
    ``i % slots`` of the channel's ring.  The ring is an in-order
    window: task ``i + slots`` is submitted once the consumer has asked
    for the result after task ``i``, so at most ``workers + 1`` tasks
    are in flight or being read, which also caps how much result
    memory a round can pin.  Results are yielded strictly in task
    order, so aggregation consumes updates in exactly the serial
    cohort order.
    """

    def __init__(self, clients: Any, defense: "Defense",
                 layout: Layout, workers: int,
                 behavior: "ClientBehavior | None" = None,
                 cost_meter: "CostMeter | None" = None) -> None:
        if workers < 2:
            raise ValueError(
                f"ParallelExecutor needs >= 2 workers, got {workers}; "
                "use SerialExecutor for single-process runs")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ParallelExecutor requires the 'fork' start method "
                "(unavailable on this platform); run with workers=0")
        self.clients = clients
        self.defense = defense
        self.layout = layout
        self.workers = workers
        self.behavior = behavior
        self.cost_meter = cost_meter
        self._pool: _PoolExecutor | None = None
        self._channel = ShmChannel(slots=workers + 1)

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> _PoolExecutor:
        if self._pool is None:
            self._pool = _PoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_bind_worker_context,
                initargs=(_WorkerContext(self.clients, self.defense,
                                         self.layout, self.behavior),),
            )
        return self._pool

    def warm_up(self) -> None:
        self._ensure_pool()
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

        The round's buffer is published once and stripped tasks are
        submitted in task order, task ``i`` writing slab ``i % slots``.
        Each result is yielded with its buffers viewing its slab; when
        the consumer asks for the next result, that slab is free and
        the task ``slots`` places later is submitted into it — so a
        consumer sees exactly the serial executor's stream.  If the
        consumer stops early or a task fails, the ``finally`` below
        cancels every not-yet-started task and waits for the running
        ones: no task outlives its round.
        """
        if not tasks:
            return
        pool = self._ensure_pool()
        slots = self._channel.slots
        ref = self._channel.publish_round(tasks[0].global_buffer)
        shared_bytes = tasks[0].global_buffer.nbytes
        pickled_bytes = 0
        task_probe: int | None = None
        result_probe: int | None = None
        futures: deque[Any] = deque()
        try:
            for index, task in enumerate(tasks):
                while len(futures) < slots \
                        and index + len(futures) < len(tasks):
                    ahead = index + len(futures)
                    stripped = replace(tasks[ahead], global_buffer=None)
                    wire = (stripped, ref, ahead % slots)
                    if task_probe is None:
                        task_probe = len(pickle.dumps(
                            wire, protocol=_PICKLE_PROTOCOL))
                    pickled_bytes += task_probe
                    try:
                        futures.append(pool.submit(_run_in_worker, *wire))
                    except BrokenProcessPool as exc:
                        # a worker died before this submission landed
                        raise self._crashed(
                            f"during round {task.round_index}") from exc
                try:
                    result = futures.popleft().result()
                except BrokenProcessPool as exc:
                    raise self._crashed(
                        f"while training client {task.client_id} in "
                        f"round {task.round_index}") from exc
                if result_probe is None:
                    result_probe = len(pickle.dumps(
                        result, protocol=_PICKLE_PROTOCOL))
                pickled_bytes += result_probe
                update, personal = self._channel.read_slab(index % slots)
                shared_bytes += update.nbytes + personal.nbytes
                result.update_buffer = update
                result.personal_buffer = personal
                yield result
        finally:
            for future in futures:
                future.cancel()
            wait(futures)
            if self.cost_meter is not None:
                self.cost_meter.record_ipc(pickled=pickled_bytes,
                                           shared=shared_bytes)
