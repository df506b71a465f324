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

* parent -> worker: the round index, the global weight-plane buffer
  and the client's own defense state
  (:meth:`Defense.export_client_state`); defenses that transform a
  round delta read the global model from their hook argument, so
  nothing else is broadcast;
* worker -> parent: the transmitted update buffer, the personalized
  weight buffer, wall-clock deltas for the cost meters, and the
  client's post-round defense state.

Worker processes are forked from the fully constructed simulation, so
datasets and model structure are inherited copy-on-write and are never
pickled.  Workers hold no per-client state: the simulation, in the
parent, is the only writer of both weight registries (personalized
weights and last uploads), a worker clears the client's defense state
once its task returns it, and a worker's one write is its result
slab.

Virtual-client plane: executors resolve ``client_id -> FLClient``
through a *provider* — anything with ``materialize(client_id)``.  The
simulation passes its :class:`~repro.fl.virtual.VirtualClientFleet`, so
each process (the parent for serial, every forked worker for parallel)
rebinds its one training client on demand instead of indexing a
fleet-sized list.  Each result carries the executing process's
cumulative ``materializations`` back to the parent's cost meter.

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

    Every task of a round carries the same ``global_buffer`` object;
    the parallel executor publishes it once per round and ships tasks
    with the field set to ``None``.
    """

    round_index: int
    client_id: int
    #: The global model as the flat weight-plane vector.
    global_buffer: np.ndarray | None
    #: This client's defense state (``Defense.export_client_state``).
    client_state: Any = None


@dataclass
class ClientRoundResult:
    """Everything one client's round produced, picklable.

    The two buffers are borrowed, not owned: each is valid until the
    consumer asks the executor's stream for the next result (or closes
    it).  In the serial executor ``personal_buffer`` is the trainer's
    live weight buffer, which the next client's round overwrites; in
    the parallel executor both are read-only views of the result slab,
    which a later task then writes.  A consumer that keeps a
    buffer copies it — the simulation's registry ``put`` is that copy.
    """

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
    client_state: Any = None
    #: ``Defense.state_bytes()`` as seen where the round ran.
    defense_state_bytes: int = 0
    #: Virtual-client plane: the executing process's cumulative
    #: materializations (binds).  Zero when the provider counts none.
    materializations: int = 0


def _stamp_materializations(result: ClientRoundResult,
                            provider: Any) -> None:
    """Record the executing process's bind count on the result."""
    result.materializations = int(getattr(provider, "materializations", 0))


def execute_client_task(client: "FLClient", defense: "Defense",
                        layout: Layout, task: ClientTask,
                        behavior: "ClientBehavior | None" = None
                        ) -> ClientRoundResult:
    """Run one client's round against explicit, shipped-in state.

    This is the single code path both executors share: import the
    client's defense state, rebuild the global model from the flat
    buffer, train with the cell's spawned RNG, and export everything
    the parent needs.  Running it in-process (serial) or in a forked
    worker (parallel) is therefore the *same* computation, bit for
    bit.

    ``behavior`` is the run's adversarial-client behavior (see
    ``fl.behavior``); ``None`` means every client is honest.  Because
    behavior noise draws from its own per-``(round, client)`` stream,
    the bitwise serial/parallel guarantee holds under every behavior
    mix.

    The result's ``personal_buffer`` is the trainer's live weight
    buffer, not a copy: the consumer's registry ``put`` (serial) or the
    worker's slab write (parallel) is the one copy made of it.
    """
    defense.import_client_state(task.client_id, task.client_state)
    global_weights = WeightStore(layout, task.global_buffer)
    rng = round_rng(client.config.seed, task.round_index, task.client_id)
    result = client.train_round(global_weights, task.round_index,
                                rng=rng, behavior=behavior)
    result.client_state = defense.export_client_state(task.client_id)
    result.defense_state_bytes = defense.state_bytes()
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
    bitwise independent of the executor.
    """

    #: How many OS processes this executor trains clients on.
    workers: int = 1

    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        """Yield each task's result, in task order."""
        raise NotImplementedError

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
            result = execute_client_task(
                self.clients.materialize(task.client_id),
                self.defense, self.layout, task, self.behavior)
            _stamp_materializations(result, self.clients)
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
