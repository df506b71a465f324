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
  outlive materialization, as rows of growable flat buffers keyed by
  client id.  Planes share one row assignment: each client's last
  upload, the defense's per-client state and, only where those two
  cannot restore them, personalized weights (§4.3 prediction state).
  Under no defense, LDP or DINAR, with no adversary corrupting its
  upload, a client's personalized model is
  ``defense.on_receive_global(cid, upload, state)``, derived on read
  (:func:`stores_personal`).  The buffers come from the executor's
  allocator — private memory in serial runs, a shared segment under
  the parallel executor — and the round's task for a client writes
  its rows in place, in whichever process runs it.  The fleet holds
  no registry.
* :class:`VirtualClientFleet` — the fleet's descriptors plus the
  process's single training ``FLClient``: ``fleet.materialize(i)``
  builds it on the template model at first use and rebinds it onto
  client ``i``'s descriptor.  Its model also evaluates
  (:meth:`VirtualClientFleet.evaluate_weights`).

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
* evaluation-mode predictions depend only on the loaded weights, so
  the trainer evaluates too; a cleared arena only reallocates scratch
  (zeroing padding borders again on the miss).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.data.partition import ClientShards
from repro.data.synthetic import Dataset
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.executor import HeapRows
from repro.nn.metrics import accuracy
from repro.nn.model import Model
from repro.nn.store import Layout, WeightStore
from repro.privacy.defenses.base import Defense

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.fl.behavior import ClientBehavior

__all__ = [
    "ClientDescriptor",
    "PersonalWeightsRegistry",
    "RegistryRows",
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


class RegistryRows(NamedTuple):
    """A registry buffer's planes, one row per client; ``personal`` is
    ``None`` where the registry derives personalized rows."""

    personal: np.ndarray | None
    uploads: np.ndarray
    state: np.ndarray


def stores_personal(defense: Defense,
                    behavior: "ClientBehavior | None" = None) -> bool:
    """Whether a run's registry must store personalized weights.

    It need not when the defense restores them from the upload and
    state rows (``Defense.derives_personal``) and no adversary uploads
    weights other than those it trained
    (``ClientBehavior.corrupts_updates``).
    """
    corrupts = behavior is not None and behavior.corrupts_updates \
        and bool(behavior.adversaries)
    return corrupts or not defense.derives_personal


def plane_widths(num_params: int, state_width: int,
                 personal: bool) -> dict[str, int]:
    """Row width of each plane a registry allocates, by name, in
    :class:`RegistryRows` order."""
    widths = {"personal": num_params, "uploads": num_params,
              "state": state_width}
    if not personal:
        del widths["personal"]
    return widths


def rows_of(buffers: Iterable[np.ndarray], capacity: int,
            widths: dict[str, int]) -> RegistryRows:
    """Flat plane buffers, one per entry of ``widths``, as rows."""
    planes = {name: buffer.reshape(capacity, width)
              for (name, width), buffer in zip(widths.items(), buffers)}
    return RegistryRows(**{"personal": None, **planes})


def personalized(defense: Defense, layout: Layout, rows: RegistryRows,
                 client_id: int, row: int) -> WeightStore:
    """A client's personalized weights: a view of its stored row, or
    ``defense.on_receive_global`` of its upload and state rows (a view
    of the upload where the defense restores nothing)."""
    if rows.personal is not None:
        return WeightStore(layout, rows.personal[row])
    return defense.on_receive_global(
        client_id, WeightStore(layout, rows.uploads[row]), rows.state[row])


class _Plane(Mapping[int, WeightStore]):
    """A registry's weight plane as a read-only mapping of zero-copy
    row views (a held view shows the client's next round)."""

    def __init__(self, registry: "PersonalWeightsRegistry",
                 plane: str) -> None:
        self._registry, self._plane = registry, plane

    def __len__(self) -> int:
        return len(self._registry._slot)

    def __contains__(self, client_id: object) -> bool:
        return client_id in self._registry._slot

    def __iter__(self) -> Iterator[int]:
        return iter(self._registry._slot)

    def __getitem__(self, client_id: int) -> WeightStore:
        registry = self._registry
        rows = getattr(registry.rows, self._plane)
        return WeightStore(registry.layout,
                           rows[registry._slot[client_id]])


class PersonalWeightsRegistry(_Plane):
    """Every client's per-client state, in rows of flat buffers.

    Up to three planes share one row assignment: last uploads (the
    server-side attacker's view; :attr:`uploads`), the defense's state,
    ``Defense.state_width(layout)`` values per row (fixed when the
    first rows are allocated: DINAR's ``private_layer`` may be set
    after the simulation is built), and personalized weights (§4.3
    prediction state).  The registry is the mapping of personalized
    weights.  With ``personal=True`` they are a stored plane; otherwise
    (:func:`stores_personal` says when that is exact) each is derived
    on read from the client's upload and state rows by
    ``defense.on_receive_global``, which for DINAR is a new store, not
    a view.  Each plane's buffer comes from ``allocator`` —
    :class:`~repro.fl.executor.HeapRows` in serial runs, a shared
    segment under the parallel executor — and at least doubles when it
    grows.
    """

    def __init__(self, layout: Layout, defense: Defense | None = None,
                 allocator: Any = None, *, personal: bool = True) -> None:
        self.layout = layout
        self.defense = defense or Defense()
        self._allocator = allocator or HeapRows()
        #: Whether personalized weights are a stored plane.
        self.stores_personal = personal
        self._slot: dict[int, int] = {}
        self.capacity = 0
        #: The allocator's flat buffers behind the planes of :attr:`rows`.
        self.buffers: tuple[np.ndarray, ...] = ()
        self.rows: RegistryRows | None = None
        self.uploads = _Plane(self, "uploads")

    @property
    def _registry(self) -> "PersonalWeightsRegistry":
        return self

    def __getitem__(self, client_id: int) -> WeightStore:
        return personalized(self.defense, self.layout, self.rows,
                            client_id, self._slot[client_id])

    def client_ids(self) -> list[int]:
        """Ids with a row, ascending (the evaluation order)."""
        return sorted(self._slot)

    def row(self, client_id: int) -> int:
        """A client's row index, the same in every plane."""
        return self._slot[client_id]

    @property
    def state_width(self) -> int:
        """Values in one client's defense-state row."""
        if self.rows is not None:
            return self.rows.state.shape[1]
        return self.defense.state_width(self.layout)

    @property
    def nbytes(self) -> int:
        """Bytes of every allocated plane."""
        return sum(buffer.nbytes for buffer in self.buffers)

    @property
    def state_nbytes(self) -> int:
        """Bytes of the defense-state rows in use."""
        return len(self) * self.state_width * self.layout.dtype.itemsize

    def widths(self) -> dict[str, int]:
        """Row width of each allocated plane, by name."""
        return plane_widths(self.layout.num_params, self.state_width,
                            self.stores_personal)

    def _allocated(self) -> list[np.ndarray]:
        """The allocated planes' rows, in :meth:`widths` order."""
        return [plane for plane in self.rows or () if plane is not None]

    def relocate(self, capacity: int, allocator: Any = None) -> None:
        """Move every row into new buffers of ``capacity`` rows from
        ``allocator`` (the registry's own by default).  Planes move one
        at a time, each old buffer released as soon as it is copied, so
        at most one plane is held twice."""
        widths = self.widths()
        # A failed allocation leaves every row where it was (a parallel
        # executor's close() unlinks any new segment).
        buffers = [(allocator or self._allocator).allocate(
                       capacity * width, self.layout.dtype)
                   for width in widths.values()]
        old = list(zip(self._allocated(), self.buffers))
        self.buffers, self.capacity = tuple(buffers), capacity
        self.rows = rows_of(buffers, capacity, widths)
        for new in self._allocated()[:len(old)]:
            self._move(new, *old.pop(0))

    def _move(self, new: np.ndarray, plane: np.ndarray,
              buffer: np.ndarray) -> None:
        new[:len(self)] = plane[:len(self)]
        self._allocator.release(buffer)

    def reserve(self, client_ids: Iterable[int]) -> None:
        """Grow capacity, at most once, to fit every id not yet present
        (assigning no row)."""
        needed = len(self) + len(set(client_ids) - self._slot.keys())
        if needed > self.capacity:
            self.relocate(max(needed, 8, 2 * self.capacity))

    def assign(self, client_ids: Iterable[int]) -> list[int]:
        """Give every id a row and return the new ones, whose rows are
        unwritten.  Called before a round, so a round never grows the
        buffer under the rows its tasks and dense rules hold."""
        client_ids = list(client_ids)
        self.reserve(client_ids)
        new = [cid for cid in dict.fromkeys(client_ids)
               if cid not in self._slot]
        for cid in new:
            self._slot[cid] = len(self._slot)
        return new

    def put(self, client_id: int, buffer: np.ndarray) -> None:
        """Copy a client's personalized weights into its stored row (a
        new row's other planes stay unwritten).  Rounds write their
        rows in place (``execute_client_task``) and never call it; it
        stays while ``benchmarks/e2e/trace.py`` wraps it."""
        if not self.stores_personal:
            raise ValueError(
                "this registry derives personalized weights from the "
                "upload and state rows; write those instead")
        if buffer.shape != (self.layout.num_params,):
            raise ValueError(
                f"client {client_id}: buffer shape {buffer.shape} does "
                f"not match layout with {self.layout.num_params} params")
        self.assign([client_id])
        self.rows.personal[self._slot[client_id]] = buffer

    def planes(self) -> dict[str, np.ndarray]:
        """Each allocated plane's rows in use, plus ``ids``: row ``i``
        belongs to client ``ids[i]`` (what a checkpoint saves)."""
        ids = np.array(sorted(self._slot, key=self._slot.get), np.int64)
        widths = self.widths()
        rows = self._allocated() or [
            np.empty((0, width), self.layout.dtype)
            for width in widths.values()]
        return {"ids": ids, **{name: plane[:len(self)] for name, plane
                               in zip(widths, rows)}}

    def restore(self, planes: Mapping[str, np.ndarray]) -> None:
        """Replace every row with :meth:`planes` output."""
        self._slot = {}
        self.assign(int(cid) for cid in planes["ids"])
        for name, plane in zip(self.widths(), self._allocated()):
            plane[:len(self)] = planes[name]


class VirtualClientFleet:
    """A fleet of client descriptors over one training model.

    :meth:`materialize` rebinds the process's single training
    ``FLClient`` — built on the template model at first use — onto a
    client's descriptor via :meth:`FLClient.bind`; no buffer is ever
    reallocated, so successive calls return the same trainer bound to
    whichever client was materialized last.  Each forked executor
    worker inherits the fleet and so trains on its own copy-on-write
    trainer.

    The template the trainer binds is also the evaluation model
    (:meth:`eval_model`), so a process holds one model, and the fleet
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
    # evaluation
    # ------------------------------------------------------------------
    def eval_model(self) -> Model:
        """The process's one model, the template the trainer binds.

        Callers load whatever weights they evaluate (predictions depend
        on nothing else), and every ``train_round`` loads its client's
        whole weight buffer, so evaluating on it never moves a
        trajectory.
        """
        return self._template

    def evaluate_weights(self, weights: WeightStore, x: np.ndarray,
                         y: np.ndarray) -> float:
        """Accuracy of the given weights on ``(x, y)`` via
        :meth:`eval_model`."""
        model = self.eval_model()
        model.set_store(weights)
        return accuracy(model.predict(x), y)
