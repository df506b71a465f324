"""Round executors: the per-round client fan-out as a subsystem.

After the flat weight plane made aggregation cheap, per-round
wall-clock is dominated by the strictly sequential client-training
loop.  This module turns that loop into a pluggable
:class:`RoundExecutor`:

* :class:`SerialExecutor` — the reference implementation, one client
  after another in the parent process;
* :class:`repro.fl.shm.ParallelExecutor` — fans the cohort out across
  a ``fork``-based process pool over a zero-copy shared-memory
  transport: each task crosses the pool pipe as a :class:`ClientTask`
  descriptor while the weight vectors move through mapped segments,
  and the parent reassembles full :class:`ClientRoundResult` objects.
  Where segments cannot be created, :func:`make_executor` falls back
  to the serial executor.

Determinism is the design constraint, not an afterthought: every
client's round RNG is derived via
``np.random.SeedSequence(seed, spawn_key=(round_index, client_id))``
(see :func:`round_rng`), so a client's random stream depends only on
``(seed, round, client)`` — never on which process runs it or in what
order — and serial and parallel executions are **bitwise identical**.

What crosses the process boundary is explicit and nothing else does:

* parent -> worker: the round index, the global weight-plane buffer,
  the defense's round-shared state and the client's own defense state
  (:meth:`Defense.export_round_state` /
  :meth:`Defense.export_client_state`);
* worker -> parent: the transmitted update buffer, the personalized
  weight buffer, wall-clock deltas for the cost meters, and the
  client's post-round defense state.

Worker processes are forked from the fully constructed simulation, so
datasets and model structure are inherited copy-on-write and are never
pickled.  The parent's personal-weights registry stays authoritative
for evaluation state, which the simulation writes back from the
returned results.

Virtual-client plane: executors resolve ``client_id -> FLClient``
through a *provider* — anything with ``materialize(client_id)``.  The
simulation passes its :class:`~repro.fl.virtual.VirtualClientFleet`, so
each process (the parent for serial, every forked worker for parallel)
materializes clients on demand from its own bounded model pool instead
of indexing a fleet-sized list.  Each result carries the executing
process's pool accounting (``pool_live`` / ``pool_materializations``)
back to the parent's cost meter.

Workspace arenas (:class:`repro.nn.workspace.Workspace`) are strictly
process-local: a forked worker inherits the parent model's arena
copy-on-write and re-warms its own buffers on first use, and no arena
ever rides in a :class:`ClientTask` or :class:`ClientRoundResult` —
``Workspace`` refuses to pickle, so any payload that serializes at all
is proven free of scratch state.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.nn.store import Layout, WeightStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.fl.behavior import ClientBehavior
    from repro.fl.client import FLClient
    from repro.fl.config import FLConfig
    from repro.fl.costs import CostMeter
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


@dataclass
class ClientTask:
    """Everything one client needs to run one round, picklable.

    Every task of a round carries the same ``global_buffer`` and
    ``round_state`` objects; the parallel executor publishes them once
    per round and ships tasks with both fields set to ``None``.
    """

    round_index: int
    client_id: int
    #: The global model as the flat weight-plane vector.
    global_buffer: np.ndarray | None
    #: This client's defense state (``Defense.export_client_state``).
    client_state: Any = None
    #: Round-shared defense state (``Defense.export_round_state``).
    round_state: Any = None
    #: Injected dropout: a dropped client never trains and never
    #: produces a result (see :func:`client_drops`).
    dropped: bool = False


@dataclass
class ClientRoundResult:
    """Everything one client's round produced, picklable."""

    client_id: int
    #: The transmitted (post-defense) update as a flat vector.
    #: ``None`` only in transit from a worker (its result slab holds
    #: the row).
    update_buffer: np.ndarray | None
    #: The personalized (pre-defense) weights as a flat vector.
    #: ``None`` only in transit from a worker.
    personal_buffer: np.ndarray | None
    num_samples: int
    train_seconds: float
    defense_seconds: float
    #: This client's defense state after the round.
    client_state: Any
    #: ``Defense.state_bytes()`` as seen where the round ran.
    defense_state_bytes: int
    #: Virtual-client plane: model instances live in the executing
    #: process's pool, and its cumulative materializations (binds).
    #: Zero when the provider keeps no pool accounting.
    pool_live: int = 0
    pool_materializations: int = 0


def _stamp_pool_stats(result: ClientRoundResult, provider: Any) -> None:
    """Record the executing process's pool accounting on the result."""
    result.pool_live = int(getattr(provider, "live_models", 0))
    result.pool_materializations = int(
        getattr(provider, "materializations", 0))


def execute_client_task(client: "FLClient", defense: "Defense",
                        layout: Layout, task: ClientTask,
                        behavior: "ClientBehavior | None" = None
                        ) -> ClientRoundResult:
    """Run one client's round against explicit, shipped-in state.

    This is the single code path both executors share: import the
    defense state the client's hooks read, rebuild the global model
    from the flat buffer, train with the cell's spawned RNG, and
    export everything the parent needs.  Running it in-process
    (serial) or in a forked worker (parallel) is therefore the *same*
    computation, bit for bit.

    ``behavior`` is the run's adversarial-client behavior (see
    ``fl.behavior``); ``None`` means every client is honest.  Because
    behavior noise draws from its own per-``(round, client)`` stream,
    the bitwise serial/parallel guarantee holds under every behavior
    mix.
    """
    defense.import_round_state(task.round_state)
    defense.import_client_state(task.client_id, task.client_state)
    global_weights = WeightStore(layout, task.global_buffer)
    rng = round_rng(client.config.seed, task.round_index, task.client_id)
    update = client.train_round(global_weights, task.round_index, rng=rng,
                                behavior=behavior)
    return ClientRoundResult(
        client_id=task.client_id,
        update_buffer=update.weights.buffer,
        personal_buffer=client.personal_weights.buffer,
        num_samples=update.num_samples,
        train_seconds=update.train_seconds,
        defense_seconds=update.defense_seconds,
        client_state=defense.export_client_state(task.client_id),
        defense_state_bytes=defense.state_bytes(),
    )


class RoundExecutor:
    """Runs one FL round's cohort of client tasks.

    The primitive is :meth:`iter_round`: results stream back one at a
    time, **always in cohort (task) order**, with dropped tasks
    skipped.  Streaming in a fixed order is what lets the server fold
    updates into its constant-memory accumulator as they arrive while
    staying bitwise independent of the executor — and it makes round
    closing lazy: a consumer that stops iterating once its completion
    threshold is met never pays for the stragglers it will discard
    (the serial executor literally never trains them).
    """

    #: How many OS processes this executor trains clients on.
    workers: int = 1

    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        """Yield each non-dropped task's result, in task order."""
        raise NotImplementedError

    def run_round(self, tasks: Sequence[ClientTask]
                  ) -> list[ClientRoundResult]:
        """Execute every task, returning results in task order."""
        return list(self.iter_round(tasks))

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def warm_up(self) -> None:
        """Pre-acquire resources (worker pools) ahead of the first round."""


class SerialExecutor(RoundExecutor):
    """The reference executor: clients run one after another."""

    def __init__(self, clients: Any, defense: "Defense",
                 layout: Layout,
                 behavior: "ClientBehavior | None" = None) -> None:
        self.clients = clients
        self.defense = defense
        self.layout = layout
        self.behavior = behavior

    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        for task in tasks:
            if task.dropped:
                continue
            result = execute_client_task(
                self.clients.materialize(task.client_id),
                self.defense, self.layout, task, self.behavior)
            _stamp_pool_stats(result, self.clients)
            yield result


def make_executor(clients: Any, defense: "Defense",
                  layout: Layout, config: "FLConfig",
                  behavior: "ClientBehavior | None" = None,
                  cost_meter: "CostMeter | None" = None
                  ) -> RoundExecutor:
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
    when set.
    """
    if config.workers > 1:
        # Imported here: serial runs never load multiprocessing's
        # shared-memory machinery.
        from repro.fl.shm import ParallelExecutor, shm_available
        if shm_available():
            return ParallelExecutor(clients, defense, layout,
                                    workers=config.workers,
                                    behavior=behavior,
                                    cost_meter=cost_meter)
        warnings.warn(
            f"shared memory is unavailable here; running the "
            f"{config.workers}-worker configuration serially",
            RuntimeWarning, stacklevel=2)
    return SerialExecutor(clients, defense, layout, behavior=behavior)
