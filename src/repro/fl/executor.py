"""Round executors: the per-round client fan-out as a subsystem.

This module makes the per-round client-training loop a pluggable
:class:`RoundExecutor`:

* :class:`SerialExecutor` — the reference implementation, one client
  after another in the parent process;
* :class:`repro.fl.shm.ParallelExecutor` — fans the cohort out across
  a ``fork``-based process pool over zero-copy shared memory.  Where
  segments cannot be created, :func:`make_executor` falls back to the
  serial executor.

Determinism is the design constraint, not an afterthought: every
client's round RNG is derived via
``np.random.SeedSequence(seed, spawn_key=(round_index, client_id))``
(see :func:`round_rng`), so a client's random stream depends only on
``(seed, round, client)`` — never on which process runs it or in what
order — and serial and parallel executions are **bitwise identical**.

What crosses the process boundary is explicit and nothing else does:
a small :class:`ClientTask` (round, client, registry row, cohort) goes
down and a :class:`ClientRoundResult` (sample count, timings, bind
count) comes back, pickled; the global buffer and every client's
registry rows — personalized weights, last upload, defense state — are
shared, and :func:`execute_client_task` reads and writes the rows in
place, in the parent for serial runs and in a worker for parallel
ones.  Workers fork from the fully constructed simulation, inherit
datasets and models copy-on-write, and hold no per-client state.
Evaluation follows the rows: :meth:`RoundExecutor.personal_accuracies`
scores each client's personalized model — its stored row, or
``defense.on_receive_global(cid, upload, state)`` where the registry
derives it (``repro.fl.virtual.stores_personal``) — in the parent for
serial runs and in the workers while a parallel executor's pool is
open, so the parent of a parallel run never reads a client's rows.

Executors resolve ``client_id -> FLClient`` through a *provider* —
anything with ``materialize(client_id)``, such as the simulation's
:class:`~repro.fl.virtual.VirtualClientFleet` — so each process
rebinds its one training client on demand; each result carries that
process's cumulative ``materializations`` to the parent's cost meter.
Workspace arenas are process-local: ``Workspace`` refuses to pickle,
so any task or result that serializes is free of scratch state.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.nn.store import Layout, WeightStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.data.synthetic import Dataset
    from repro.fl.behavior import ClientBehavior
    from repro.fl.config import FLConfig
    from repro.fl.costs import CostMeter
    from repro.fl.virtual import RegistryRows
    from repro.privacy.defenses.base import Defense


def round_rng(seed: int, round_index: int,
              client_id: int) -> np.random.Generator:
    """The dedicated RNG stream of one ``(round, client)`` cell.

    Spawned from the run seed with ``spawn_key=(round_index,
    client_id)``, so the stream is a pure function of the experiment
    seed and the cell — independent of execution order, of which
    process runs the client, and of every other client's consumption.
    This is what makes serial and parallel runs bitwise identical.
    """
    sequence = np.random.SeedSequence(
        seed, spawn_key=(int(round_index), int(client_id)))
    return np.random.default_rng(sequence)


#: Spawn-key tag of the dropout stream.  round_rng uses 2-element
#: spawn keys, so any 3-element key is a disjoint stream; the tag
#: keeps future per-cell streams from colliding with this one.
_DROPOUT_KEY = 0xD20


def client_drops(seed: int, round_index: int, client_id: int,
                 drop_rate: float) -> bool:
    """Whether one ``(round, client)`` cell drops out of its round.

    The decision draws from a dedicated SeedSequence stream of the
    cell — not from ``round_rng`` — so enabling dropout never perturbs
    training draws, and the dropout pattern is a pure function of
    ``(seed, round, client, drop_rate)``: reproducible, independent of
    worker count and of every other client.
    """
    if drop_rate <= 0.0:
        return False
    sequence = np.random.SeedSequence(
        seed, spawn_key=(int(round_index), int(client_id), _DROPOUT_KEY))
    return float(np.random.default_rng(sequence).random()) < drop_rate


def round_start_rng(seed: int, round_index: int) -> np.random.Generator:
    """The generator ``Defense.on_round_start`` receives, in every
    process that runs the round's setup."""
    return np.random.default_rng((seed, 3, round_index))


class HeapRows:
    """Registry buffers in process-private memory (serial runs)."""

    def allocate(self, size: int, dtype: np.dtype) -> np.ndarray:
        return np.empty(size, dtype=dtype)

    def release(self, buffer: np.ndarray) -> None:
        pass  # freed with its last view


@dataclass
class ClientTask:
    """Everything one client needs to run one round, picklable.

    Every task of a round carries the same ``global_buffer`` and
    ``cohort`` objects; the parallel executor moves both into the
    round's descriptor and ships tasks without them.
    """

    round_index: int
    client_id: int
    #: The global model as the flat weight-plane vector.
    global_buffer: np.ndarray | None
    #: The client's row in every plane of the executor's registry.
    row: int
    #: The round's completion set, the clients it trains and averages
    #: (``Defense.on_round_start``'s ids).
    cohort: tuple[int, ...] = ()


@dataclass
class ClientRoundResult:
    """Everything one client's round produced, picklable.

    The trainer returns its two buffers; :func:`execute_client_task`
    copies them into the client's registry rows (the personalized
    buffer only where the registry stores it) and clears both, so an
    executor's results carry no vector.
    """

    client_id: int
    #: The transmitted (post-defense) update as a flat vector.
    update_buffer: np.ndarray | None
    #: The personalized (pre-defense) weights as a flat vector: the
    #: trainer's live weight buffer, overwritten by its next round.
    personal_buffer: np.ndarray | None
    num_samples: int
    train_seconds: float
    defense_seconds: float
    #: Virtual-client plane: the executing process's cumulative
    #: materializations (binds).  Zero when the provider counts none.
    materializations: int = 0


def execute_client_task(clients: Any, defense: "Defense",
                        layout: Layout, task: ClientTask,
                        rows: "RegistryRows",
                        behavior: "ClientBehavior | None" = None
                        ) -> ClientRoundResult:
    """Run one client's round and write it into the client's rows.

    This is the single code path both executors share: bind the
    provider's trainer (``clients.materialize``) to the client,
    rebuild the global model from the flat buffer, train with the
    cell's spawned RNG — the defense reads and rewrites the client's
    state row in place — and copy the update, and the personalized
    weights where ``rows`` has a personal plane, into their rows of
    ``rows``.  Running it in-process
    (serial) or in a forked worker over shared rows (parallel) is
    therefore the *same* computation, bit for bit.

    ``behavior`` is the run's adversarial-client behavior (see
    ``fl.behavior``); ``None`` means every client is honest.  Because
    behavior noise draws from its own per-``(round, client)`` stream,
    the bitwise serial/parallel guarantee holds under every behavior
    mix.
    """
    client = clients.materialize(task.client_id)
    global_weights = WeightStore(layout, task.global_buffer)
    rng = round_rng(client.config.seed, task.round_index, task.client_id)
    result = client.train_round(global_weights, task.round_index,
                                rng=rng, behavior=behavior,
                                state=rows.state[task.row])
    rows.uploads[task.row] = result.update_buffer
    if rows.personal is not None:
        rows.personal[task.row] = result.personal_buffer
    result.update_buffer = result.personal_buffer = None
    # the executing process's bind count, for the parent's cost meter
    result.materializations = int(getattr(clients, "materializations", 0))
    return result


class RoundExecutor:
    """Runs one FL round's cohort of client tasks.

    The primitive is :meth:`iter_round`: every task runs, and results
    stream back one at a time, **always in task order**.  Which
    clients run is the caller's decision, made before the round
    starts (the simulation passes exactly the round's completion set),
    so an executor never trains a client whose result is discarded.
    Streaming in a fixed order is what lets the server fold updates
    into its constant-memory accumulator as they arrive while staying
    bitwise independent of the executor.  The executor owns the run's
    client registry, built on its :attr:`allocator` with a personal
    plane only where the defense and the behavior need one; a yielded
    result's rows are already written, and :meth:`personal_accuracies`
    scores them where they live.
    """

    #: How many OS processes this executor trains clients on.
    workers: int = 1
    #: Where the registry's buffer lives.
    allocator: Any = HeapRows()

    def __init__(self, clients: Any, defense: "Defense",
                 layout: Layout,
                 behavior: "ClientBehavior | None" = None,
                 test: "Dataset | None" = None) -> None:
        # Imported here: repro.fl.virtual imports this module.
        from repro.fl.virtual import (
            PersonalWeightsRegistry,
            stores_personal,
        )
        self.clients = clients
        self.defense = defense
        self.layout = layout
        self.behavior = behavior
        #: The held-out set :meth:`personal_accuracies` scores on.
        self.test = test
        self.registry = PersonalWeightsRegistry(
            layout, defense, self.allocator,
            personal=stores_personal(defense, behavior))

    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        """Yield each task's result, in task order, once the task's
        rows are written."""
        raise NotImplementedError

    def personal_accuracies(self, client_ids: Sequence[int]
                            ) -> list[float]:
        """Each client's personalized-model accuracy on :attr:`test`,
        in ``client_ids`` order, scored on the provider's one model:
        the registry's stored row, or ``on_receive_global`` of the
        client's upload and state rows."""
        if self.test is None:
            raise ValueError("this executor was built without a test set")
        x, y = self.test.x, self.test.y
        return [self.clients.evaluate_weights(self.registry[cid], x, y)
                for cid in client_ids]

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def warm_up(self) -> None:
        """Pre-acquire resources (the broadcast segment) ahead of the
        first round."""

    def start(self) -> None:
        """Start the worker processes, if any and not yet running.  The
        simulation calls it before a round grows the registry."""


class SerialExecutor(RoundExecutor):
    """The reference executor: clients run one after another."""

    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        for task in tasks:
            yield execute_client_task(
                self.clients, self.defense, self.layout, task,
                self.registry.rows, self.behavior)


def make_executor(clients: Any, defense: "Defense",
                  layout: Layout, config: "FLConfig",
                  behavior: "ClientBehavior | None" = None,
                  cost_meter: "CostMeter | None" = None,
                  test: "Dataset | None" = None) -> RoundExecutor:
    """Build the executor ``config.workers`` asks for.

    ``clients`` is a provider: anything with
    ``materialize(client_id)``, such as a ``VirtualClientFleet``.
    ``workers`` of 0 or 1 selects the serial reference; anything
    larger fans out across that many worker processes over shared
    memory.  Where shared-memory segments cannot be created the run
    falls back to the serial executor with a warning — the results
    are bitwise identical either way.
    ``behavior`` is the run's adversarial-client behavior (``None`` =
    honest); ``cost_meter`` receives per-round IPC byte accounting
    when set; ``test`` is the held-out set personalized models are
    scored on (:meth:`RoundExecutor.personal_accuracies`).
    """
    if config.workers > 1:
        # Imported here: serial runs never load multiprocessing's
        # shared-memory machinery.
        from repro.fl.shm import ParallelExecutor, shm_available
        if shm_available():
            return ParallelExecutor(clients, defense, layout,
                                    workers=config.workers,
                                    behavior=behavior,
                                    cost_meter=cost_meter, test=test)
        warnings.warn(
            f"shared memory is unavailable here; running the "
            f"{config.workers}-worker configuration serially",
            RuntimeWarning, stacklevel=2)
    return SerialExecutor(clients, defense, layout, behavior=behavior,
                          test=test)
