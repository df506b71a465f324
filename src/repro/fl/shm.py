"""The parallel executor and its zero-copy shared-memory transport.

:class:`ParallelExecutor` fans a round's cohort out across a
``fork``-based process pool.  Workers fork from the fully constructed
simulation, so datasets and models are inherited copy-on-write, and
the weight plane is one process-invariant contiguous buffer, so no
weight vector ever crosses the pool pipe.  Per-client IPC is
``O(descriptor)``:

**Down-link (broadcast segment).**  One ``multiprocessing.
shared_memory`` segment per executor holds the round's global buffer.
The parent writes it once per round and bumps a generation counter;
tasks carry only a tiny :class:`ShmRound` descriptor ``(segment
names, generation, geometry)``.  Workers map the segment and wrap it
in a *read-only* zero-copy view — safe because the serial executor
already hands every task of a round the very same buffer object, so
nothing in the round path mutates the received global in place (DINAR
copies before personalizing, ``set_store`` copies in).  The
round-shared defense state is pickled **once** per round into a second
segment; each worker unpickles it once per generation (not once per
task) and caches it.

**Up-link (result slab ring).**  A ring of ``workers + 1``
preallocated slabs — two rows of ``num_params`` each — receives every
client's ``update_buffer`` / ``personal_buffer`` directly from the
worker; the result that travels back through the pipe carries neither
vector.  The parent copies the two rows out (parent-owned arrays, so
downstream consumers keep their lifetime guarantees) and recycles the
slab.

**Lifecycle.**  ``ShmChannel.close()`` is idempotent and unlinks every
segment; an ``atexit`` hook covers channels that are never closed
explicitly.  Workers attach segments *without* registering them with
the ``resource_tracker`` — on Python < 3.13 an attach re-registers the
name, and a worker that later exits (or crashes) would have the
tracker unlink segments the parent still owns (the classic
double-unlink).  Generation overwrite is safe: the parent only
publishes round ``g+1`` after round ``g`` closed, and the only tasks
still reading by then are stragglers whose results are discarded.

The transport is **bitwise invisible**: the mapped view holds the
identical float64/float32 values the parent published, the round
state round-trips through ``pickle`` (bitwise for numpy payloads), and
every per-cell RNG stream is untouched — serial and parallel runs are
trajectory-identical (pinned by the golden fixtures and
hypothesis-tested across worker counts, defenses and pool capacities).
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
from collections import deque
from collections.abc import Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.fl.executor import (
    ClientRoundResult,
    ClientTask,
    RoundExecutor,
    _stamp_pool_stats,
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
    #: Segment holding the round state's pickle bytes (None = no state).
    state_name: str | None
    #: Length of the round state's pickle payload inside ``state_name``.
    state_len: int
    #: Monotonic per-channel round counter; workers key their
    #: unpickled-round-state cache on it.
    generation: int
    num_params: int
    dtype: str
    #: Slab count of the ring (ring geometry, for the worker's view).
    slots: int


class ShmChannel:
    """Parent-side owner of one executor's shared-memory segments.

    Three segments, all created lazily on first use and owned (and
    unlinked) exclusively by the parent:

    * ``weights`` — ``num_params`` values; rewritten every round;
    * ``state``   — the round state's pickle bytes; recreated at a
      doubled capacity (new name) when a round's state outgrows it;
    * ``slabs``   — ``slots`` result slabs of 2 rows x ``num_params``.

    Slab leases are plain parent-side bookkeeping: ``lease`` pops a
    free index (or reports exhaustion with ``None``), ``recycle``
    returns one.  ``read_slab`` copies both rows out so the slab can
    be recycled immediately.
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError(f"slab ring needs >= 1 slot, got {slots}")
        self.slots = slots
        self._weights: Any = None
        self._slabs: Any = None
        self._state: Any = None
        self._state_capacity = 0
        self._generation = 0
        self._num_params: int | None = None
        self._dtype: np.dtype | None = None
        self._free: deque[int] = deque()
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
        self._free = deque(range(self.slots))
        self._closed = False
        # Cover executors that are never closed explicitly; close()
        # unregisters, so a clean close leaves no hook behind.
        atexit.register(self.close)

    def close(self) -> None:
        """Unlink every segment (idempotent, crash-tolerant)."""
        if self._closed:
            return
        self._closed = True
        for segment in (self._weights, self._slabs, self._state):
            if segment is None:
                continue
            for release in (segment.close, segment.unlink):
                try:
                    release()
                except FileNotFoundError:
                    # Already unlinked (resource tracker raced us, or
                    # a second close path); the goal state is reached.
                    pass
                except Exception:  # pragma: no cover - best effort
                    pass
        self._weights = self._slabs = self._state = None
        self._state_capacity = 0
        self._free = deque()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    @property
    def is_open(self) -> bool:
        return self._weights is not None

    def segment_names(self) -> tuple[str, ...]:
        """Names of the currently live segments (tests, leak checks)."""
        return tuple(
            segment.name
            for segment in (self._weights, self._slabs, self._state)
            if segment is not None)

    # ------------------------------------------------------------------
    # down-link: per-round broadcast
    # ------------------------------------------------------------------
    def publish_round(self, buffer: np.ndarray,
                      round_state: Any) -> ShmRound:
        """Write one round's global buffer + round state, bump the
        generation, and return the descriptor tasks will carry."""
        buffer = np.ascontiguousarray(buffer)
        self.open(buffer.size, buffer.dtype)
        self._generation += 1
        view = np.ndarray((self._num_params,), dtype=self._dtype,
                          buffer=self._weights.buf)
        view[:] = buffer
        del view  # drop the buffer export so close() stays legal
        state_name: str | None = None
        state_len = 0
        if round_state is not None:
            payload = pickle.dumps(round_state,
                                   protocol=_PICKLE_PROTOCOL)
            self._ensure_state_capacity(len(payload))
            self._state.buf[:len(payload)] = payload
            state_name = self._state.name
            state_len = len(payload)
        return ShmRound(
            weights_name=self._weights.name,
            slabs_name=self._slabs.name,
            state_name=state_name,
            state_len=state_len,
            generation=self._generation,
            num_params=self._num_params,
            dtype=self._dtype.name,
            slots=self.slots,
        )

    def _ensure_state_capacity(self, needed: int) -> None:
        """Grow the round-state segment by recreation (fresh name).

        Segments cannot resize in place; the old one is unlinked and a
        doubled replacement created.  Stragglers still mapping the old
        segment keep a valid mapping until their process drops it —
        unlink only removes the name.
        """
        if self._state is not None and needed <= self._state_capacity:
            return
        if self._state is not None:
            try:
                self._state.close()
                self._state.unlink()
            except FileNotFoundError:  # pragma: no cover - raced
                pass
        capacity = 1024
        while capacity < needed:
            capacity *= 2
        self._state = _shm.SharedMemory(create=True, size=capacity)
        self._state_capacity = capacity

    # ------------------------------------------------------------------
    # up-link: the result slab ring
    # ------------------------------------------------------------------
    def lease(self) -> int | None:
        """Pop a free slab index, or None when the ring is exhausted."""
        if not self._free:
            return None
        return self._free.popleft()

    def recycle(self, index: int) -> None:
        """Return a slab to the free list."""
        if not 0 <= index < self.slots:
            raise ValueError(f"slab index {index} out of range "
                             f"[0, {self.slots})")
        if index in self._free:
            raise ValueError(f"slab {index} recycled twice")
        self._free.append(index)

    @property
    def free_slabs(self) -> int:
        """How many slabs are currently leasable (tests)."""
        return len(self._free)

    def read_slab(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Copy one slab's ``(update, personal)`` rows out.

        The copies are parent-owned, so the slab can be recycled the
        moment this returns while the result's consumers (streaming
        accumulator, personal-weights registry, ``last_updates``) keep
        arrays with ordinary lifetimes.
        """
        rows = self._slab_rows(index)
        update = rows[0].copy()
        personal = rows[1].copy()
        del rows
        return update, personal

    def _slab_rows(self, index: int) -> np.ndarray:
        if self._slabs is None:
            raise RuntimeError("channel is not open")
        if not 0 <= index < self.slots:
            raise ValueError(f"slab index {index} out of range "
                             f"[0, {self.slots})")
        itemsize = self._dtype.itemsize
        offset = index * 2 * self._num_params * itemsize
        return np.ndarray((2, self._num_params), dtype=self._dtype,
                          buffer=self._slabs.buf, offset=offset)

    def write_slab(self, index: int, update: np.ndarray,
                   personal: np.ndarray) -> None:
        """Write both result rows of one slab (parent-side; tests —
        workers go through :func:`_worker_write_slab`)."""
        rows = self._slab_rows(index)
        rows[0] = update
        rows[1] = personal
        del rows


# ----------------------------------------------------------------------
# worker-side attachment cache
# ----------------------------------------------------------------------

#: name -> attached SharedMemory, for the per-executor-constant
#: weights/slab segments (one pool serves exactly one executor, so the
#: cache never grows past a handful of names).
_WORKER_SEGMENTS: dict[str, Any] = {}

#: Single-slot cache of the current round's unpickled state:
#: (weights_name, generation) -> state.  One unpickle per worker per
#: round instead of one per task.
_WORKER_ROUND_STATE: tuple[tuple[str, int], Any] | None = None

#: Single-slot attachment for the (recreatable) state segment.
_WORKER_STATE_SEGMENT: tuple[str, Any] | None = None


def _worker_segment(name: str) -> Any:
    segment = _WORKER_SEGMENTS.get(name)
    if segment is None:
        segment = _attach(name)
        _WORKER_SEGMENTS[name] = segment
    return segment


def _worker_state_bytes(name: str, length: int) -> bytes:
    """Read the round state's pickle payload from its segment."""
    global _WORKER_STATE_SEGMENT
    if _WORKER_STATE_SEGMENT is None \
            or _WORKER_STATE_SEGMENT[0] != name:
        if _WORKER_STATE_SEGMENT is not None:
            try:  # the old segment was outgrown and unlinked
                _WORKER_STATE_SEGMENT[1].close()
            except Exception:  # pragma: no cover - best effort
                pass
        _WORKER_STATE_SEGMENT = (name, _attach(name))
    return bytes(_WORKER_STATE_SEGMENT[1].buf[:length])


def _worker_resolve(ref: ShmRound) -> tuple[np.ndarray, Any]:
    """Map one round's broadcast: the read-only global buffer view
    plus the (cached) unpickled round state."""
    global _WORKER_ROUND_STATE
    segment = _worker_segment(ref.weights_name)
    buffer = np.ndarray((ref.num_params,), dtype=np.dtype(ref.dtype),
                        buffer=segment.buf)
    buffer.flags.writeable = False
    if ref.state_name is None:
        return buffer, None
    key = (ref.weights_name, ref.generation)
    if _WORKER_ROUND_STATE is not None \
            and _WORKER_ROUND_STATE[0] == key:
        return buffer, _WORKER_ROUND_STATE[1]
    state = pickle.loads(_worker_state_bytes(ref.state_name,
                                             ref.state_len))
    _WORKER_ROUND_STATE = (key, state)
    return buffer, state


def _worker_write_slab(ref: ShmRound, index: int, update: np.ndarray,
                       personal: np.ndarray) -> None:
    """Write one result's two rows into its leased slab."""
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

    ``clients`` is a provider (fleet or adapted sequence) inherited via
    fork; each worker materializes from its *own* copy-on-write pool,
    so per-process live models stay bounded by the pool capacity.
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

    Maps the round's broadcast (read-only global buffer + cached round
    state), runs the same :func:`execute_client_task` path as the
    serial executor, then writes the two result vectors into the
    leased slab so only a descriptor travels back through the pipe.
    """
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process has no bound context; "
                           "the pool initializer did not run")
    try:
        buffer, round_state = _worker_resolve(ref)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} could not map the round "
            f"{task.round_index} shared-memory broadcast: "
            f"{exc!r}") from exc
    task = replace(task, global_buffer=buffer, round_state=round_state)
    try:
        result = execute_client_task(
            context.clients.materialize(task.client_id),
            context.defense, context.layout, task, context.behavior)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} failed in round "
            f"{task.round_index}: {exc!r}") from exc
    _stamp_pool_stats(result, context.clients)
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
    and round state are published once into a :class:`ShmChannel`;
    tasks cross the pool pipe as descriptors and every result comes
    back through a leased slab of the channel's ring.  Submission is
    windowed by that ring: at most ``workers + 1`` tasks are in
    flight, which also caps how much result memory a round can pin.
    Results are yielded strictly in task order, so aggregation
    consumes updates in exactly the serial cohort order.
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
        #: Abandoned stragglers still holding a leased slab:
        #: ``(future, slab_index)``; reaped lazily.
        self._stragglers: list[tuple[Any, int]] = []

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
        # Pending stragglers were cancelled or die with their workers;
        # unlinking now is safe because mappings survive the unlink.
        self._stragglers = []
        self._channel.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- slab leasing with backpressure --------------------------------
    def _reap_stragglers(self, *, block: bool) -> None:
        """Recycle slabs of abandoned tasks whose futures finished.

        ``block=True`` waits for at least one straggler to finish —
        the backpressure path when the whole ring is leased out.
        Straggler outcomes (results and exceptions alike) are
        discarded: the round that owned them closed long ago.
        """
        if not self._stragglers:
            return
        if block:
            wait([future for future, _ in self._stragglers],
                 return_when=FIRST_COMPLETED)
        keep: list[tuple[Any, int]] = []
        for future, slab in self._stragglers:
            if future.done():
                try:
                    future.result()
                except Exception:
                    pass
                self._channel.recycle(slab)
            else:
                keep.append((future, slab))
        self._stragglers = keep

    def _acquire_slab(self) -> int | None:
        """Lease a slab, reaping stragglers; None when the current
        round itself holds every slab (its own completions will free
        one)."""
        self._reap_stragglers(block=False)
        slab = self._channel.lease()
        if slab is None and self._stragglers:
            self._reap_stragglers(block=True)
            slab = self._channel.lease()
        return slab

    # -- the round loop ------------------------------------------------
    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        """Stream results in task order over shared memory.

        The round's buffer + state are published once; stripped tasks
        are submitted in task order as slabs free up, completions land
        in a reorder buffer, and each collected result has its slab
        copied out and recycled before it is yielded — so a consumer
        sees exactly the serial executor's stream.  A consumer that
        stops early (round closed at its completion threshold)
        triggers the ``finally`` below, which cancels every
        not-yet-started future; in-flight stragglers keep their slab
        until they finish and are then discarded.
        """
        pool = self._ensure_pool()
        live = [task for task in tasks if not task.dropped]
        if not live:
            return
        ref = self._channel.publish_round(live[0].global_buffer,
                                          live[0].round_state)
        pending = deque(
            (index, replace(task, global_buffer=None, round_state=None))
            for index, task in enumerate(live))
        shared_bytes = live[0].global_buffer.nbytes + ref.state_len
        pickled_bytes = 0
        task_probe: int | None = None
        result_probe: int | None = None
        futures: dict[Any, int] = {}
        slab_of: dict[int, int] = {}
        buffered: dict[int, ClientRoundResult] = {}
        next_index = 0
        try:
            while next_index < len(live):
                while pending:
                    slab = self._acquire_slab()
                    if slab is None:
                        break
                    index, task = pending.popleft()
                    if task_probe is None:
                        task_probe = len(pickle.dumps(
                            (task, ref, slab), protocol=_PICKLE_PROTOCOL))
                    pickled_bytes += task_probe
                    slab_of[index] = slab
                    try:
                        futures[pool.submit(_run_in_worker, task, ref,
                                            slab)] = index
                    except BrokenProcessPool as exc:
                        # a worker died before this submission landed
                        self.close()
                        raise RuntimeError(
                            f"a worker process died during round "
                            f"{task.round_index} (killed or crashed "
                            f"hard); the pool has been shut down and "
                            f"the round aborted") from exc
                done, _ = wait(list(futures),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        self.close()
                        task = live[index]
                        raise RuntimeError(
                            f"a worker process died while training "
                            f"client {task.client_id} in round "
                            f"{task.round_index} (killed or crashed "
                            f"hard); the pool has been shut down and "
                            f"the round aborted") from exc
                    except Exception:
                        self._channel.recycle(slab_of.pop(index))
                        raise
                    if result_probe is None:
                        result_probe = len(pickle.dumps(
                            result, protocol=_PICKLE_PROTOCOL))
                    pickled_bytes += result_probe
                    slab = slab_of.pop(index)
                    update, personal = self._channel.read_slab(slab)
                    self._channel.recycle(slab)
                    shared_bytes += update.nbytes + personal.nbytes
                    result.update_buffer = update
                    result.personal_buffer = personal
                    buffered[index] = result
                while next_index in buffered:
                    yield buffered.pop(next_index)
                    next_index += 1
        finally:
            for future, index in futures.items():
                slab = slab_of.pop(index)
                if not self._channel.is_open:
                    # The channel was torn down mid-round (worker
                    # crash path): every lease died with it, and
                    # registering stragglers against a future
                    # channel's fresh free list would double-recycle.
                    continue
                if future.cancel():
                    self._channel.recycle(slab)
                else:
                    self._stragglers.append((future, slab))
            if self.cost_meter is not None:
                self.cost_meter.record_ipc(pickled=pickled_bytes,
                                           shared=shared_bytes)
