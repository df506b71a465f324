"""Membership splits and federated partitioning.

Implements the paper's data protocol (§5.1): half of each dataset is
the attacker's prior knowledge for shadow training, the other half
splits 80/20 into the member (training) and non-member (test) pools.
The member pool is then partitioned across FL clients — disjoint IID
splits (§5.3) or Dirichlet(alpha) non-IID splits (§5.8).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import Dataset


@dataclass
class MembershipSplit:
    """The paper's three disjoint pools as index arrays over the one
    loaded dataset.  Only ``nonmembers`` (read whole by every
    evaluation, a tenth of the data) is built up front; ``members``
    copies its pool on each access and is not cached, and the
    attacker's pool stays rows (``attacker_idx``) that the shadow and
    calibrated attacks gather batch by batch."""

    source: Dataset
    member_idx: np.ndarray     # FL training rows — the MIA positives
    nonmember_idx: np.ndarray  # held-out test rows — the MIA negatives
    attacker_idx: np.ndarray   # attacker's prior knowledge (shadow data)
    nonmembers: Dataset = field(init=False)

    def __post_init__(self) -> None:
        self.nonmembers = self.source.subset(
            self.nonmember_idx, name=f"{self.source.name}/nonmembers")

    @property
    def members(self) -> Dataset:
        return self.source.subset(self.member_idx,
                                  name=f"{self.source.name}/members")

    @property
    def num_classes(self) -> int:
        return self.source.num_classes


def split_for_membership(dataset: Dataset, rng: np.random.Generator, *,
                         attacker_fraction: float = 0.5,
                         train_fraction: float = 0.8) -> MembershipSplit:
    """Split per §5.1: attacker half, then 80/20 member/non-member."""
    if not 0.0 < attacker_fraction < 1.0:
        raise ValueError(f"attacker_fraction must be in (0,1), "
                         f"got {attacker_fraction}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), "
                         f"got {train_fraction}")
    n = len(dataset)
    order = rng.permutation(n)
    n_attacker = int(n * attacker_fraction)
    rest = order[n_attacker:]
    n_members = int(len(rest) * train_fraction)
    return MembershipSplit(source=dataset, member_idx=rest[:n_members],
                           nonmember_idx=rest[n_members:],
                           attacker_idx=order[:n_attacker])


@dataclass(frozen=True)
class ClientShards:
    """A fleet's shard assignment in CSR form: two flat arrays.

    A list of per-client index arrays costs one ndarray object (~100
    bytes of header) per client — O(num_clients) Python objects even
    before any model exists, which is exactly what the virtual-client
    plane forbids.  Packing the shards as one concatenated ``indices``
    array plus an ``offsets`` array makes the whole assignment two
    allocations whose size is O(total_samples) + O(num_clients) * 8
    bytes, and every per-client view is a zero-copy slice.
    """

    #: All clients' sample indices, concatenated client 0 first.
    indices: np.ndarray
    #: ``offsets[i]:offsets[i+1]`` delimits client ``i``'s shard.
    offsets: np.ndarray

    @classmethod
    def pack(cls, shards: Sequence[np.ndarray]) -> "ClientShards":
        """Pack per-client index arrays (``partition_iid`` /
        ``partition_dirichlet`` output) into CSR form."""
        sizes = np.fromiter((len(s) for s in shards), dtype=np.int64,
                            count=len(shards))
        offsets = np.zeros(len(shards) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        if shards:
            indices = np.concatenate(
                [np.asarray(s, dtype=np.int64) for s in shards])
        else:
            indices = np.zeros(0, dtype=np.int64)
        return cls(indices=indices, offsets=offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(len(self)):
            yield self.shard(i)

    def _check(self, client_id: int) -> int:
        n = len(self)
        if not 0 <= client_id < n:
            raise IndexError(
                f"client_id {client_id} out of range for {n} shards")
        return int(client_id)

    def shard(self, client_id: int) -> np.ndarray:
        """Client ``client_id``'s sample indices (zero-copy view)."""
        i = self._check(client_id)
        return self.indices[self.offsets[i]:self.offsets[i + 1]]

    def num_samples(self, client_id: int) -> int:
        """Shard size without materializing the view."""
        i = self._check(client_id)
        return int(self.offsets[i + 1] - self.offsets[i])

    @property
    def total_samples(self) -> int:
        return int(self.offsets[-1])

    @property
    def nbytes(self) -> int:
        """Bytes of the packed assignment (the whole fleet's cost)."""
        return int(self.indices.nbytes + self.offsets.nbytes)


def partition_iid(n_samples: int, num_clients: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """Disjoint, equal-size random shards (the paper's §5.3 setting)."""
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if n_samples < num_clients:
        raise ValueError(
            f"{n_samples} samples cannot cover {num_clients} clients")
    order = rng.permutation(n_samples)
    return [shard for shard in np.array_split(order, num_clients)]


def partition_dirichlet(labels: np.ndarray, num_clients: int, alpha: float,
                        rng: np.random.Generator, *,
                        num_classes: int | None = None,
                        min_samples: int = 1) -> list[np.ndarray]:
    """Dirichlet(alpha) label-skew partition (§5.8).

    Lower ``alpha`` concentrates each class on fewer clients
    (more non-IID); ``alpha=math.inf`` degenerates to IID.
    Re-draws until every client has at least ``min_samples`` samples.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if math.isinf(alpha):
        return partition_iid(len(labels), num_clients, rng)
    k = num_classes or int(labels.max()) + 1
    for _ in range(100):
        shards: list[list[int]] = [[] for _ in range(num_clients)]
        for cls in range(k):
            cls_idx = np.flatnonzero(labels == cls)
            if len(cls_idx) == 0:
                continue
            rng.shuffle(cls_idx)
            proportions = rng.dirichlet([alpha] * num_clients)
            counts = np.floor(proportions * len(cls_idx)).astype(int)
            counts[-1] = len(cls_idx) - counts[:-1].sum()
            start = 0
            for client, count in enumerate(counts):
                shards[client].extend(cls_idx[start:start + count])
                start += count
        if min(len(s) for s in shards) >= min_samples:
            return [np.array(sorted(s), dtype=np.int64) for s in shards]
    raise RuntimeError(
        f"could not draw a Dirichlet({alpha}) partition giving every one of "
        f"{num_clients} clients >= {min_samples} samples in 100 attempts")


def client_shards(split: MembershipSplit, num_clients: int, seed: int,
                  dirichlet_alpha: float = math.inf) -> ClientShards:
    """The member pool's client shards, as rows of ``split.source``.

    Drawn from ``default_rng(seed)`` over member positions — IID when
    ``dirichlet_alpha`` is infinite, Dirichlet label skew otherwise —
    then mapped to source rows with one gather on the packed indices.
    Every consumer of a run's shards (the simulation, DINAR's
    initialization) calls this, so they all see the same rows.
    """
    source, member_idx = split.source, split.member_idx
    shard_list = partition_dirichlet(
        source.y[member_idx], num_clients, dirichlet_alpha,
        np.random.default_rng(seed), num_classes=source.num_classes)
    packed = ClientShards.pack(shard_list)
    return ClientShards(member_idx[packed.indices], packed.offsets)
