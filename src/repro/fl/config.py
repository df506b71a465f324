"""Federated experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fl.aggregation import AGGREGATOR_CHOICES
from repro.fl.behavior import BEHAVIOR_CHOICES


@dataclass
class FLConfig:
    """Hyper-parameters of one federated run (paper defaults from §5.3).

    The paper uses lr=1e-3 and batch 64 at full dataset scale; the
    defaults here are tuned to the CPU-scaled synthetic datasets but
    every field is overridable per experiment.
    """

    num_clients: int = 5
    rounds: int = 5
    local_epochs: int = 5
    lr: float = 0.05
    batch_size: int = 64
    optimizer: str = "sgd"
    seed: int = 0
    clients_per_round: int | None = None  # None = all clients every round
    eval_every: int = 1                   # evaluate every k rounds
    proximal_mu: float = 0.0              # FedProx term (0 = plain FedAvg)
    server_momentum: float = 0.0          # FedAvgM (0 = plain FedAvg)
    #: Worker processes for client training; 0/1 = serial reference.
    #: Any value produces bitwise-identical results (see fl.executor).
    workers: int = 0
    #: Parallel-executor transport.  "shm" is the only one: the global
    #: buffer and the client registry live in shared-memory segments
    #: (see fl.shm).  Accepted so existing configs that name it keep
    #: working.
    ipc: str = "shm"
    #: Fraction of the (clients_per_round-limited) cohort actually
    #: sampled each round, cfraction-style; 1.0 = everyone selected
    #: participates (the pre-fleet default).  Drawn from a dedicated
    #: per-round stream so the default path's RNG draws are untouched.
    sample_fraction: float = 1.0
    #: Per-(round, client) probability that a sampled client drops out
    #: and never reports back.  Decided by a dedicated SeedSequence
    #: stream (see ``fl.executor.client_drops``), so dropout patterns
    #: are reproducible and worker-count-independent.
    drop_rate: float = 0.0
    #: Fraction of the sampled cohort that must report before the round
    #: closes.  Completions beyond the threshold are stragglers: their
    #: results are recorded in the CostMeter and discarded.  1.0 = wait
    #: for everyone (the pre-fleet default).
    completion_threshold: float = 1.0
    #: Compute-plane precision: "float64" (bitwise reproduction
    #: default) or "float32" (half the memory traffic and upload
    #: bytes; see repro.nn.dtypes).
    dtype: str = "float64"
    #: Server aggregation rule (see ``fl.aggregation``): "fedavg"
    #: streams in constant memory (the default, bitwise-pinned);
    #: "trimmed_mean" / "coordinate_median" / "clustered" are
    #: Byzantine-robust order statistics that read every client's
    #: update at once (``requires_dense``).  The server refuses them
    #: for a round of more than DENSE_CLIENT_CAP clients; lower
    #: ``clients_per_round`` or ``sample_fraction``, or use "fedavg".
    aggregator: str = "fedavg"
    #: Segment-masked robust distances (see ``fl.aggregation``):
    #: "none" clusters on whole-vector distances (the default);
    #: "obfuscated" excludes the defense's protected segments — the
    #: layers DINAR obfuscates — from the clustering distance, so a
    #: camouflaging per-layer noise floor can't hide byzantine
    #: clients.  Requires aggregator="clustered" and a defense that
    #: declares ``protected_indices``.
    distance_mask: str = "none"
    #: Adversarial client behavior (see ``fl.behavior``): "none"
    #: (honest, the default), "byzantine" (boosted sign-flip),
    #: "byzantine_gaussian", "label_flip", or "free_rider".
    adversary: str = "none"
    #: Fraction of clients that are adversarial; which ids is a seeded
    #: pure function of the config (``behavior.select_adversaries``).
    adversary_fraction: float = 0.0
    #: Has no effect: every process trains on one rebound model (see
    #: ``fl.virtual``).  Kept, validated, only because the end-to-end
    #: benchmark's workloads still pass it; deleted together with
    #: ``ipc`` once they stop.
    max_materialized: int = 8
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, "
                             f"got {self.num_clients}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, "
                             f"got {self.local_epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, "
                             f"got {self.batch_size}")
        if self.clients_per_round is not None and not (
                1 <= self.clients_per_round <= self.num_clients):
            raise ValueError(
                f"clients_per_round must be in [1, {self.num_clients}], "
                f"got {self.clients_per_round}")
        if self.proximal_mu < 0:
            raise ValueError(
                f"proximal_mu must be >= 0, got {self.proximal_mu}")
        if not 0.0 <= self.server_momentum < 1.0:
            raise ValueError(
                f"server_momentum must be in [0, 1), "
                f"got {self.server_momentum}")
        if self.workers < 0:
            raise ValueError(
                f"workers must be >= 0, got {self.workers}")
        if self.ipc != "shm":
            raise ValueError(
                f"ipc must be 'shm' (the only parallel transport), "
                f"got {self.ipc!r}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], "
                f"got {self.sample_fraction}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not 0.0 < self.completion_threshold <= 1.0:
            raise ValueError(
                f"completion_threshold must be in (0, 1], "
                f"got {self.completion_threshold}")
        # A round closes when completion_threshold of the cohort has
        # reported, but (1 - drop_rate) of the cohort completes in
        # expectation — a threshold above that is unsatisfiable on
        # average and the run would die mid-flight instead of here.
        if self.completion_threshold > 1.0 - self.drop_rate + 1e-12:
            raise ValueError(
                f"completion_threshold={self.completion_threshold} is not "
                f"satisfiable under drop_rate={self.drop_rate}: only "
                f"{1.0 - self.drop_rate:.3g} of the cohort completes in "
                f"expectation; lower the threshold or the drop rate")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.aggregator not in AGGREGATOR_CHOICES:
            raise ValueError(
                f"aggregator must be one of "
                f"{', '.join(AGGREGATOR_CHOICES)}, "
                f"got {self.aggregator!r}")
        if self.distance_mask not in ("none", "obfuscated"):
            raise ValueError(
                f"distance_mask must be 'none' or 'obfuscated', "
                f"got {self.distance_mask!r}")
        if self.distance_mask != "none" and self.aggregator != "clustered":
            raise ValueError(
                f"distance_mask={self.distance_mask!r} only applies to "
                f"the clustered aggregator's distance metric, "
                f"got aggregator={self.aggregator!r}")
        if self.adversary not in BEHAVIOR_CHOICES:
            raise ValueError(
                f"adversary must be one of "
                f"{', '.join(BEHAVIOR_CHOICES)}, "
                f"got {self.adversary!r}")
        if not 0.0 <= self.adversary_fraction < 1.0:
            raise ValueError(
                f"adversary_fraction must be in [0, 1) — an all-"
                f"adversarial cohort has nothing left to aggregate — "
                f"got {self.adversary_fraction}")
        if self.adversary != "none" and self.adversary_fraction <= 0.0:
            raise ValueError(
                f"adversary={self.adversary!r} needs a positive "
                f"adversary_fraction (got {self.adversary_fraction})")
        if self.adversary == "none" and self.adversary_fraction > 0.0:
            raise ValueError(
                f"adversary_fraction={self.adversary_fraction} has no "
                f"effect with adversary='none'; pick a behavior")
        if self.max_materialized < 1:
            raise ValueError(
                f"max_materialized must be >= 1, "
                f"got {self.max_materialized}")
