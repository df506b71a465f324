"""Cost accounting for Table 3 (client train time, server aggregation
time, defense memory) and the FL message traffic.

Wall-clock time is measured where each computation runs (the client
trainer, the server's folds) and merged here; memory is
accounted as the bytes of extra state a defense keeps alive (noise
buffers, compression residuals, stored private layers), which is what
dominates the paper's GPU-memory deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostReport:
    """Aggregated costs of one federated run."""

    client_train_seconds: float = 0.0
    client_defense_seconds: float = 0.0
    server_aggregate_seconds: float = 0.0
    client_train_rounds: int = 0
    server_rounds: int = 0
    defense_state_bytes: int = 0
    # Fleet-plane participation accounting, summed across rounds:
    # every sampled client ends up in exactly one of the other three
    # buckets (completed / dropped / straggled).
    clients_sampled: int = 0
    clients_completed: int = 0
    clients_dropped: int = 0
    clients_straggled: int = 0
    # Robustness-plane accounting, summed across rounds: sampled
    # client slots held by adversarial clients, and updates a robust
    # aggregator rejected outright (norm clustering's filter).
    clients_adversarial: int = 0
    clients_filtered: int = 0
    # Virtual-client-plane accounting: cumulative descriptor binds as
    # seen by the busiest process, and the personal-weights registry's
    # allocated bytes.
    model_materializations: int = 0
    registry_bytes: int = 0
    # FL message traffic, summed over completing clients and rounds:
    # the dense global model each downloads, and its update in the
    # defense's wire format (``Defense.upload_nbytes``).
    download_bytes: int = 0
    upload_bytes: int = 0
    # IPC-plane accounting, summed across rounds: bytes that crossed
    # the executor's process boundary through pickling (task/result
    # payloads on the pool pipe) vs through mapped shared-memory
    # segments (weight broadcast, registry rows).  Both zero for
    # serial runs — nothing crosses a process boundary.
    ipc_bytes_pickled: int = 0
    ipc_bytes_shared: int = 0
    # Per-layer accounting: the privacy-budget schedule of a
    # layer-wise DP defense (one dict per parameter-bearing layer:
    # name, share, epsilon, sigma, params).  Empty unless a
    # defense publishes a ``segment_report``.
    segment_budget: list = field(default_factory=list)

    @property
    def train_seconds_per_round(self) -> float:
        """Mean per-client training duration per FL round (Table 3 col 1)."""
        if self.client_train_rounds == 0:
            return 0.0
        return (self.client_train_seconds + self.client_defense_seconds) \
            / self.client_train_rounds

    @property
    def aggregate_seconds_per_round(self) -> float:
        """Mean server aggregation duration per FL round (Table 3 col 2)."""
        if self.server_rounds == 0:
            return 0.0
        return self.server_aggregate_seconds / self.server_rounds

    def participation_summary(self) -> str:
        """One-line fleet participation digest for run summaries."""
        summary = (f"{self.clients_completed}/{self.clients_sampled} "
                   f"completed (dropped {self.clients_dropped}, "
                   f"stragglers {self.clients_straggled})")
        if self.clients_adversarial or self.clients_filtered:
            summary += (f", adversarial {self.clients_adversarial}, "
                        f"filtered {self.clients_filtered}")
        return summary

    def client_plane_summary(self) -> str:
        """One-line virtual-client-plane digest for run summaries."""
        return (f"{self.model_materializations} bind(s), "
                f"registry {self.registry_bytes / 1024:.0f} KiB")

    def traffic_summary(self) -> str:
        """One-line FL message-traffic digest for run summaries."""
        return (f"{_format_bytes(self.download_bytes)} down, "
                f"{_format_bytes(self.upload_bytes)} up")

    def ipc_summary(self) -> str:
        """One-line executor-IPC digest for run summaries."""
        if not self.ipc_bytes_pickled and not self.ipc_bytes_shared:
            return "in-process (no executor IPC)"
        return (f"{_format_bytes(self.ipc_bytes_pickled)} pickled, "
                f"{_format_bytes(self.ipc_bytes_shared)} shared")

    def segment_budget_summary(self) -> str:
        """One-line per-segment epsilon/noise digest for run summaries."""
        if not self.segment_budget:
            return "uniform (no per-segment schedule)"
        return ", ".join(
            f"{row['name']} eps={row['epsilon']:.3f} "
            f"sigma={row['sigma']:.3f}"
            for row in self.segment_budget)


def _format_bytes(num_bytes: int) -> str:
    """Human-scale byte count for one-line summaries."""
    if num_bytes >= 1 << 20:
        return f"{num_bytes / (1 << 20):.1f} MiB"
    if num_bytes >= 1 << 10:
        return f"{num_bytes / (1 << 10):.1f} KiB"
    return f"{num_bytes} B"


class CostMeter:
    """Accumulates wall-clock and memory costs across a run."""

    def __init__(self) -> None:
        self.report = CostReport()

    def merge_client_round(self, train_seconds: float,
                           defense_seconds: float = 0.0) -> None:
        """Fold one client's round timing into this meter.

        The executor measures each client round where it actually runs
        (possibly a worker process) and the simulation merges the
        deltas here, so the aggregate report means the same thing
        under serial and parallel execution: total client compute, not
        parent wall-clock.
        """
        if train_seconds < 0 or defense_seconds < 0:
            raise ValueError("round timings must be >= 0, got "
                             f"{train_seconds}/{defense_seconds}")
        self.report.client_train_seconds += train_seconds
        self.report.client_defense_seconds += defense_seconds
        self.report.client_train_rounds += 1

    def merge_server_round(self, seconds: float) -> None:
        """Fold one round's server-side reduction time into this meter.

        The streaming aggregate interleaves with client execution (the
        server folds each update as it arrives), so the server can no
        longer wrap the whole round in one timer without also counting
        client training.  It times each fold/drain individually and
        merges the total here, which counts one server round.
        """
        if seconds < 0:
            raise ValueError(f"round timing must be >= 0, got {seconds}")
        self.report.server_aggregate_seconds += seconds
        self.report.server_rounds += 1

    def record_participation(self, *, sampled: int, completed: int,
                             dropped: int, stragglers: int) -> None:
        """Fold one round's fleet participation counts into this meter."""
        counts = (sampled, completed, dropped, stragglers)
        if any(c < 0 for c in counts):
            raise ValueError(
                f"participation counts must be >= 0, got {counts}")
        if completed + dropped + stragglers != sampled:
            raise ValueError(
                f"participation counts must partition the cohort: "
                f"{completed} completed + {dropped} dropped + "
                f"{stragglers} stragglers != {sampled} sampled")
        self.report.clients_sampled += sampled
        self.report.clients_completed += completed
        self.report.clients_dropped += dropped
        self.report.clients_straggled += stragglers

    def record_robustness(self, *, adversarial: int,
                          filtered: int) -> None:
        """Fold one round's adversary/filter counts into this meter."""
        if adversarial < 0 or filtered < 0:
            raise ValueError(
                f"robustness counts must be >= 0, got "
                f"{(adversarial, filtered)}")
        self.report.clients_adversarial += adversarial
        self.report.clients_filtered += filtered

    def record_client_plane(self, *, materializations: int = 0,
                            registry_bytes: int = 0) -> None:
        """Track virtual-client-plane peaks.

        Both are max-merged: with parallel executors each worker
        process counts its own binds, so the honest fleet-wide
        statement is the busiest process's count, not a sum over
        processes.
        """
        counts = (materializations, registry_bytes)
        if any(c < 0 for c in counts):
            raise ValueError(
                f"client-plane counts must be >= 0, got {counts}")
        self.report.model_materializations = max(
            self.report.model_materializations, int(materializations))
        self.report.registry_bytes = max(
            self.report.registry_bytes, int(registry_bytes))

    def record_traffic(self, *, download: int, upload: int) -> None:
        """Fold one client's download + upload bytes into this meter."""
        if download < 0 or upload < 0:
            raise ValueError(
                f"traffic byte counts must be >= 0, got "
                f"{(download, upload)}")
        self.report.download_bytes += int(download)
        self.report.upload_bytes += int(upload)

    def record_ipc(self, *, pickled: int = 0, shared: int = 0) -> None:
        """Fold one round's executor-IPC byte counts into this meter."""
        if pickled < 0 or shared < 0:
            raise ValueError(
                f"IPC byte counts must be >= 0, got {(pickled, shared)}")
        self.report.ipc_bytes_pickled += int(pickled)
        self.report.ipc_bytes_shared += int(shared)

    def record_segment_budget(self, rows: list) -> None:
        """Record a layer-wise defense's per-segment budget schedule.

        Last write wins: the schedule is deterministic per run, so
        re-recording each round is idempotent.
        """
        self.report.segment_budget = list(rows)

    def record_defense_state(self, num_bytes: int) -> None:
        """Track the peak extra bytes a defense keeps alive."""
        self.report.defense_state_bytes = max(
            self.report.defense_state_bytes, int(num_bytes))
