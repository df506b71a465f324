"""Virtual-client plane: descriptor fleets with pooled materialization.

The pre-virtual client plane was O(num_clients) live state: one
``FLClient`` + ``Model`` (weight buffer, gradient buffer, workspace
arena) and one eagerly copied ``Dataset`` shard per client, built up
front whether or not the client ever trains.  At fleet scale that is
the dominant memory term — 100k clients of even a small fcnn allocate
gigabytes that mostly sit idle.

This module replaces live objects with three small pieces:

* :class:`ClientDescriptor` — what a client *is* when idle: an id, a
  zero-copy shard view into the fleet's packed
  :class:`~repro.data.partition.ClientShards`, a sample count and the
  shared member pool to materialize from.  Descriptors are created on
  demand and garbage-collected freely.
* :class:`PersonalWeightsRegistry` — the per-client *residue* that must
  outlive materialization: personalized weights (§4.3 prediction
  state) as rows of one growable flat 2D buffer keyed by client id.
  Rows are written by copy and read as zero-copy
  :class:`~repro.nn.store.WeightStore` views.
* :class:`VirtualClientFleet` — a sequence-shaped façade over the
  fleet.  ``fleet[i]`` / ``fleet.materialize(i)`` returns a live
  ``FLClient`` from a bounded pool of at most ``capacity``
  (``FLConfig.max_materialized``) model instances, rebinding the
  least-recently-used one when the pool is full.

Bitwise rules (why pooling cannot change a trajectory):

* every eager client was built from ``model_factory(default_rng(seed))``
  — N identical models — and ``train_round`` overwrites the *entire*
  weight buffer from the received global store before touching data,
  rebuilds the optimizer with zeroed state each round (Algorithm 1
  line 8), and backward passes overwrite rather than accumulate
  gradients, so whichever model instance runs a ``(round, client)``
  cell produces identical bits;
* all randomness draws from dedicated per-cell SeedSequence streams
  (``fl.executor.round_rng`` and friends), never from shared
  generators, so materialization *order* is free;
* shard subsets are pure functions of (members, shard indices), so
  lazy materialization yields the exact arrays the eager copies held;
* evaluation-mode predictions depend only on the weights loaded into
  the eval model, so one shared eval model serves every client.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.data.partition import ClientShards
from repro.data.synthetic import Dataset
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.nn.metrics import accuracy
from repro.nn.model import Model
from repro.nn.store import Layout, WeightStore
from repro.privacy.defenses.base import Defense

__all__ = [
    "ClientDescriptor",
    "PersonalWeightsRegistry",
    "VirtualClientFleet",
]


@dataclass(frozen=True)
class ClientDescriptor:
    """A client while idle: everything needed to materialize it."""

    client_id: int
    #: Zero-copy view into the fleet's packed shard indices.
    shard: np.ndarray
    num_samples: int
    #: The shared member pool every shard indexes into.
    source: Dataset
    name: str

    def materialize_data(self) -> Dataset:
        """Build the client's dataset subset (the eager plane's copy,
        made on demand instead of up front)."""
        return self.source.subset(self.shard, name=self.name)


class PersonalWeightsRegistry:
    """Per-client personalized weights as rows of one flat 2D buffer.

    The eager plane kept one ``WeightStore`` object (buffer + header)
    alive per trained client; the registry packs the same residue into
    a single ``(capacity, num_params)`` array that doubles as needed,
    so a fleet's prediction state is one allocation plus an id->row
    dict.  ``put`` copies the incoming buffer into its row; ``get``
    returns a zero-copy store view of the row — mutating a pooled
    model after its round therefore never corrupts stored residue.
    """

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self._rows = np.empty((0, layout.num_params), dtype=layout.dtype)
        self._slot: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._slot

    def client_ids(self) -> list[int]:
        """Ids with stored residue, ascending (the eager plane's
        evaluation order)."""
        return sorted(self._slot)

    @property
    def nbytes(self) -> int:
        """Bytes of the allocated row buffer."""
        return int(self._rows.nbytes)

    def _ensure_row(self, client_id: int) -> int:
        slot = self._slot.get(client_id)
        if slot is not None:
            return slot
        slot = len(self._slot)
        if slot >= len(self._rows):
            capacity = max(8, 2 * len(self._rows))
            grown = np.empty((capacity, self.layout.num_params),
                             dtype=self.layout.dtype)
            grown[:len(self._rows)] = self._rows
            self._rows = grown
        self._slot[client_id] = slot
        return slot

    def put(self, client_id: int, buffer: np.ndarray) -> None:
        """Copy a client's personalized weight buffer into its row."""
        if buffer.shape != (self.layout.num_params,):
            raise ValueError(
                f"client {client_id}: buffer shape {buffer.shape} does "
                f"not match layout with {self.layout.num_params} params")
        # Resolve the row before subscripting: _ensure_row may replace
        # self._rows with a grown buffer.
        slot = self._ensure_row(client_id)
        self._rows[slot, :] = buffer

    def get(self, client_id: int) -> WeightStore | None:
        """Zero-copy store view of a client's row (None if absent)."""
        slot = self._slot.get(client_id)
        if slot is None:
            return None
        return WeightStore(self.layout, self._rows[slot])


class _FleetDatasets:
    """Lazy stand-in for the eager ``simulation.client_data`` list.

    Indexing materializes the shard subset afresh — nothing is cached,
    so iterating a fleet's datasets costs one shard of memory at a
    time instead of all of them at once.
    """

    def __init__(self, fleet: "VirtualClientFleet") -> None:
        self._fleet = fleet

    def __len__(self) -> int:
        return len(self._fleet)

    def __getitem__(self, client_id: int) -> Dataset:
        return self._fleet.dataset(client_id)

    def __iter__(self) -> Iterator[Dataset]:
        for client_id in range(len(self._fleet)):
            yield self._fleet.dataset(client_id)


class VirtualClientFleet:
    """Sequence-shaped fleet façade over a bounded model pool.

    ``fleet[i]`` (and iteration) materializes client ``i``: if a pooled
    ``FLClient`` is already bound to it, that instance is returned; if
    the pool has spare capacity, a new model is cloned from the
    template; otherwise the least-recently-used pooled client is
    rebound via :meth:`FLClient.bind` — no buffer is ever reallocated.
    Handles are therefore *transient*: holding two handles from a
    capacity-1 pool yields the same object bound to whichever client
    was materialized last, and per-client state read off a handle must
    be read before the next materialization (which is how every
    existing call site already behaves — comprehensions read
    ``personal_weights`` immediately).

    The fleet also hosts the shared evaluation model (one lazy clone of
    the template serving every client's :meth:`FLClient.evaluate`) and
    the pool accounting the cost plane reports: ``live_models``,
    ``peak_live_models`` and cumulative ``materializations``.
    """

    def __init__(self, members: Dataset, shards: ClientShards,
                 template: Model, config: FLConfig, defense: Defense, *,
                 registry: PersonalWeightsRegistry | None = None,
                 capacity: int | None = None) -> None:
        if len(shards) != config.num_clients:
            raise ValueError(
                f"{len(shards)} shards for {config.num_clients} clients")
        self.members = members
        self.shards = shards
        self.config = config
        self.defense = defense
        self.capacity = capacity if capacity is not None \
            else config.max_materialized
        if self.capacity < 1:
            raise ValueError(
                f"pool capacity must be >= 1, got {self.capacity}")
        self._template = template
        self.registry = registry if registry is not None \
            else PersonalWeightsRegistry(template.weight_layout())
        self._pool: list[FLClient] = []
        self._bound: dict[int, int] = {}       # client_id -> pool slot
        self._last_used: list[int] = []        # slot -> LRU clock stamp
        self._clock = 0
        self._eval_model: Model | None = None
        #: Cumulative descriptor binds (cache misses), this process.
        self.materializations = 0
        #: High-water mark of simultaneously live pooled models.
        self.peak_live_models = 0

    # ------------------------------------------------------------------
    # descriptors and data
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.shards)

    def descriptor(self, client_id: int) -> ClientDescriptor:
        """The lightweight idle form of one client (built on demand)."""
        return ClientDescriptor(
            client_id=client_id,
            shard=self.shards.shard(client_id),
            num_samples=self.shards.num_samples(client_id),
            source=self.members,
            name=f"{self.members.name}/client{client_id}",
        )

    def dataset(self, client_id: int) -> Dataset:
        """Materialize one client's dataset subset."""
        return self.descriptor(client_id).materialize_data()

    def num_samples(self, client_id: int) -> int:
        """Shard size without materializing anything."""
        return self.shards.num_samples(client_id)

    @property
    def datasets(self) -> _FleetDatasets:
        """Lazy sequence view over every client's dataset."""
        return _FleetDatasets(self)

    # ------------------------------------------------------------------
    # the pool
    # ------------------------------------------------------------------
    @property
    def live_models(self) -> int:
        """Model instances currently alive in this process's pool."""
        return len(self._pool)

    def materialize(self, client_id: int) -> FLClient:
        """A live ``FLClient`` for ``client_id`` from the bounded pool."""
        n = len(self)
        if client_id < 0:
            client_id += n
        if not 0 <= client_id < n:
            raise IndexError(
                f"client_id {client_id} out of range for fleet of {n}")
        self._clock += 1
        slot = self._bound.get(client_id)
        if slot is not None:
            self._last_used[slot] = self._clock
            return self._pool[slot]
        descriptor = self.descriptor(client_id)
        if len(self._pool) < self.capacity:
            # First pooled model *is* the template (its initial weights
            # are already snapshotted wherever they matter); further
            # slots are buffer-copy clones, never factory rebuilds.
            model = self._template if not self._pool \
                else self._template.clone()
            client = FLClient(
                client_id=descriptor.client_id, model=model, data=None,
                config=self.config, defense=self.defense,
                eval_model_provider=self.eval_model)
            slot = len(self._pool)
            self._pool.append(client)
            self._last_used.append(self._clock)
            self.peak_live_models = max(self.peak_live_models,
                                        len(self._pool))
        else:
            slot = min(range(len(self._pool)),
                       key=self._last_used.__getitem__)
            evicted = self._pool[slot]
            self._bound.pop(evicted.client_id, None)
            client = evicted
        client.bind(descriptor, registry=self.registry)
        self._bound[client_id] = slot
        self._last_used[slot] = self._clock
        self.materializations += 1
        return client

    def __getitem__(self, client_id: int) -> FLClient:
        if not isinstance(client_id, (int, np.integer)):
            raise TypeError(
                f"fleet indices must be integers, got "
                f"{type(client_id).__name__}")
        return self.materialize(int(client_id))

    def __iter__(self) -> Iterator[FLClient]:
        for client_id in range(len(self)):
            yield self.materialize(client_id)

    # ------------------------------------------------------------------
    # shared evaluation
    # ------------------------------------------------------------------
    def eval_model(self) -> Model:
        """The fleet's single reused evaluation model.

        Cloned lazily from the template; callers load whatever weights
        they evaluate (predictions depend on nothing else), so one
        instance serves the whole fleet.
        """
        if self._eval_model is None:
            self._eval_model = self._template.clone()
        return self._eval_model

    def evaluate_weights(self, weights: WeightStore, x: np.ndarray,
                         y: np.ndarray) -> float:
        """Accuracy of the given weights on ``(x, y)`` via the shared
        eval model."""
        model = self.eval_model()
        model.set_store(weights)
        return accuracy(model.predict(x), y)
