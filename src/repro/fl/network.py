"""Simulated network transport for the FL message flow.

Cross-silo FL middleware lives or dies on communication: every round
each selected client downloads the global model and uploads an update.
This module models that traffic — bytes moved and the time they would
take on a configurable link — and gives defenses a hook to report
their *encoded* upload size (gradient compression uploads a sparse
delta, not a dense model).

The simulator runs computation natively and only *accounts* network
time; nothing here sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.store import WeightStore


@dataclass(frozen=True)
class LinkSpec:
    """One direction of a network link."""

    latency_seconds: float = 0.02
    bandwidth_bytes_per_second: float = 12.5e6  # ~100 Mbit/s

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise ValueError(
                f"latency must be >= 0, got {self.latency_seconds}")
        if self.bandwidth_bytes_per_second <= 0:
            raise ValueError(
                f"bandwidth must be positive, "
                f"got {self.bandwidth_bytes_per_second}")

    def transfer_seconds(self, num_bytes: int) -> float:
        """Simulated wall time to move ``num_bytes`` one way."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        return self.latency_seconds \
            + num_bytes / self.bandwidth_bytes_per_second


@dataclass(frozen=True)
class NetworkModel:
    """Up/down link pair between one client and the server."""

    uplink: LinkSpec = field(default_factory=LinkSpec)
    downlink: LinkSpec = field(default_factory=LinkSpec)


def dense_nbytes(weights: WeightStore) -> int:
    """Bytes of a dense encoding of a store, at its own precision — a
    float32 model uploads half the bytes of a float64 one."""
    return weights.layout.nbytes


def sparse_nbytes(weights: WeightStore,
                  reference: WeightStore | None = None, *,
                  index_bytes: int = 4) -> int:
    """Bytes of a sparse (index, value) delta encoding.

    Counts the coordinates that differ from ``reference`` (or are
    non-zero when no reference is given), in one vectorized pass over
    the flat buffers; each costs a value at the store's own itemsize
    plus an index.  This is the wire format gradient compression buys
    its bandwidth savings with.
    """
    if reference is None:
        nonzero = int(np.count_nonzero(weights.buffer))
    else:
        if reference.layout != weights.layout:
            raise ValueError("reference layout does not match the update")
        nonzero = int(np.count_nonzero(weights.buffer != reference.buffer))
    return nonzero * (weights.buffer.itemsize + index_bytes)


@dataclass
class TrafficRecord:
    """Traffic of one client in one round."""

    round_index: int
    client_id: int
    download_bytes: int
    upload_bytes: int
    download_seconds: float
    upload_seconds: float


@dataclass
class TrafficReport:
    """Accumulated communication accounting for a federated run."""

    records: list[TrafficRecord] = field(default_factory=list)

    @property
    def total_upload_bytes(self) -> int:
        return sum(r.upload_bytes for r in self.records)

    @property
    def total_download_bytes(self) -> int:
        return sum(r.download_bytes for r in self.records)

    @property
    def total_network_seconds(self) -> float:
        """Simulated time spent on the wire across all transfers."""
        return sum(r.download_seconds + r.upload_seconds
                   for r in self.records)

    def per_round_upload_bytes(self) -> dict[int, int]:
        """Upload bytes aggregated per round index."""
        out: dict[int, int] = {}
        for record in self.records:
            out[record.round_index] = out.get(record.round_index, 0) \
                + record.upload_bytes
        return out


class TrafficMeter:
    """Accounts the per-round FL message exchange."""

    def __init__(self, network: NetworkModel | None = None) -> None:
        self.network = network or NetworkModel()
        self.report = TrafficReport()

    def record_exchange(self, round_index: int, client_id: int,
                        download_bytes: int,
                        upload_bytes: int) -> TrafficRecord:
        """Record one client's download+upload for a round."""
        record = TrafficRecord(
            round_index=round_index,
            client_id=client_id,
            download_bytes=download_bytes,
            upload_bytes=upload_bytes,
            download_seconds=self.network.downlink.transfer_seconds(
                download_bytes),
            upload_seconds=self.network.uplink.transfer_seconds(
                upload_bytes),
        )
        self.report.records.append(record)
        return record
