"""Virtual-client plane: descriptor fleets over one training model.

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
  shared dataset its shard indexes.  Descriptors are created on
  demand and garbage-collected freely.
* :class:`PersonalWeightsRegistry` — the per-client *residue* that must
  outlive materialization: personalized weights (§4.3 prediction
  state), and in a second instance each client's last upload, as rows
  of one growable flat 2D buffer keyed by client id.  Rows are written
  by copy and read as zero-copy :class:`~repro.nn.store.WeightStore`
  views.  The simulation owns both registries and is their only
  writer; the fleet holds neither.
* :class:`VirtualClientFleet` — the fleet's descriptors plus the
  process's single training ``FLClient``: ``fleet.materialize(i)``
  builds it on the template model at first use and rebinds it onto
  client ``i``'s descriptor.  It also hosts the one shared
  evaluation model (:meth:`VirtualClientFleet.evaluate_weights`).

Bitwise rules (why one reused model cannot change a trajectory):

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
* shard subsets are pure functions of (source, shard indices), so
  lazy materialization yields the exact arrays the eager copies held;
* evaluation-mode predictions depend only on the weights loaded into
  the eval model, so one shared eval model serves every client.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
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
    #: The loaded dataset every shard indexes into (no copied pool).
    source: Dataset
    name: str

    def materialize_data(self) -> Dataset:
        """Build the client's dataset subset (the eager plane's copy,
        made on demand instead of up front)."""
        return self.source.subset(self.shard, name=self.name)


class PersonalWeightsRegistry(Mapping[int, WeightStore]):
    """Per-client weight rows of one flat 2D buffer, keyed by client id.

    A simulation keeps two: each client's personalized weights (§4.3
    prediction state) and each client's last transmitted upload (the
    server-side attacker's view).  The eager plane kept one
    ``WeightStore`` object (buffer + header) alive per client; the
    registry packs the same state into a single
    ``(capacity, num_params)`` array that doubles as needed, so a
    fleet's per-client state is one allocation plus an id->row dict.

    It is a read-only ``Mapping[int, WeightStore]``: ``put`` copies the
    incoming buffer into the client's row, and indexing returns a
    zero-copy store view of that row.  Mutating the training model
    after a round therefore never corrupts stored state, but a held
    view shows the client's *next* ``put``.
    """

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self._rows = np.empty((0, layout.num_params), dtype=layout.dtype)
        self._slot: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, client_id: object) -> bool:
        return client_id in self._slot

    def __iter__(self) -> Iterator[int]:
        return iter(self._slot)

    def __getitem__(self, client_id: int) -> WeightStore:
        """Zero-copy store view of a client's row (``KeyError`` if
        absent).  The view aliases the row, so it shows the client's
        next ``put`` — copy it to keep this round's values."""
        return WeightStore(self.layout, self._rows[self._slot[client_id]])

    def client_ids(self) -> list[int]:
        """Ids with a stored row, ascending (the eager plane's
        evaluation order)."""
        return sorted(self._slot)

    @property
    def nbytes(self) -> int:
        """Bytes of the allocated row buffer."""
        return int(self._rows.nbytes)

    def _grow(self, needed: int) -> None:
        """Reallocate to hold ``needed`` rows (at least doubling),
        keeping every stored row."""
        capacity = max(needed, 8, 2 * len(self._rows))
        grown = np.empty((capacity, self.layout.num_params),
                         dtype=self.layout.dtype)
        grown[:len(self._slot)] = self._rows[:len(self._slot)]
        self._rows = grown

    def reserve(self, client_ids: Iterable[int]) -> None:
        """Grow capacity, at most once, to fit every id not yet present.

        Assigns no slot.  Called with a round's completion set before
        the round streams, so no ``put`` mid-round reallocates the buffer
        under views handed out earlier in the round.
        """
        new = {cid for cid in client_ids if cid not in self._slot}
        if len(self._slot) + len(new) > len(self._rows):
            self._grow(len(self._slot) + len(new))

    def _ensure_row(self, client_id: int) -> int:
        slot = self._slot.get(client_id)
        if slot is not None:
            return slot
        slot = len(self._slot)
        if slot >= len(self._rows):
            self._grow(slot + 1)
        self._slot[client_id] = slot
        return slot

    def put(self, client_id: int, buffer: np.ndarray) -> None:
        """Copy a client's weight buffer into its row."""
        if buffer.shape != (self.layout.num_params,):
            raise ValueError(
                f"client {client_id}: buffer shape {buffer.shape} does "
                f"not match layout with {self.layout.num_params} params")
        # Resolve the row before subscripting: _ensure_row may replace
        # self._rows with a grown buffer.
        slot = self._ensure_row(client_id)
        self._rows[slot, :] = buffer


class VirtualClientFleet:
    """A fleet of client descriptors over one training model.

    :meth:`materialize` rebinds the process's single training
    ``FLClient`` — built on the template model at first use — onto a
    client's descriptor via :meth:`FLClient.bind`; no buffer is ever
    reallocated, so successive calls return the same trainer bound to
    whichever client was materialized last.  Each forked executor
    worker inherits the fleet and so trains on its own copy-on-write
    trainer.

    The fleet also hosts the shared evaluation model (one lazy clone
    of the template serving every :meth:`evaluate_weights` call) and
    counts ``materializations`` (descriptor binds) for the cost plane.
    """

    def __init__(self, source: Dataset, shards: ClientShards,
                 template: Model, config: FLConfig, defense: Defense, *,
                 name: str | None = None) -> None:
        if len(shards) != config.num_clients:
            raise ValueError(
                f"{len(shards)} shards for {config.num_clients} clients")
        self.source = source
        self.name = name or source.name  # client i is "<name>/client<i>"
        self.shards = shards
        self.config = config
        self.defense = defense
        self._template = template
        self._client: FLClient | None = None
        self._eval_model: Model | None = None
        #: Cumulative descriptor binds, this process.
        self.materializations = 0

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
            source=self.source,
            name=f"{self.name}/client{client_id}",
        )

    def dataset(self, client_id: int) -> Dataset:
        """Materialize one client's dataset subset."""
        return self.descriptor(client_id).materialize_data()

    def num_samples(self, client_id: int) -> int:
        """Shard size without materializing anything."""
        return self.shards.num_samples(client_id)

    # ------------------------------------------------------------------
    # the training client
    # ------------------------------------------------------------------
    def materialize(self, client_id: int) -> FLClient:
        """The process's training ``FLClient``, bound to ``client_id``
        (``IndexError`` outside the fleet)."""
        descriptor = self.descriptor(client_id)
        if self._client is None:
            # The template's initial weights are already snapshotted
            # wherever they matter (the server's global store).
            self._client = FLClient(self._template, self.config,
                                    self.defense)
        self._client.bind(descriptor)
        self.materializations += 1
        return self._client

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
