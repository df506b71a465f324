"""Federated simulation orchestrator.

Wires datasets, clients, server and a defense into the paper's §2.1
round loop and records everything the evaluation needs afterwards: the
global model, each client's transmitted (post-defense) update — the
server-side attacker's view — and each client's personalized model —
what the client actually predicts with.

Client training within a round is delegated to a
:class:`~repro.fl.executor.RoundExecutor` (``config.workers`` selects
serial or process-parallel execution; both are bitwise identical),
whose tasks write each client's rows of the executor's registry; the
executor also scores the personalized rows, in the pool's workers
while a parallel pool is open (:meth:`mean_client_accuracy`).

Rounds are **streaming**: executor results are consumed as they
arrive and folded straight into the server's constant-memory
accumulator, and the fleet knobs (``sample_fraction``, ``drop_rate``,
``completion_threshold``) turn the round loop into a partial-
participation, straggler-tolerant pipeline whose defaults reproduce
the pre-fleet trajectories bitwise.  The round's completion set is
fixed before training starts and the executor runs exactly that set:
dropouts and stragglers are recorded, never trained (see
:meth:`run_round`).

The client plane is **virtual** (see ``repro.fl.virtual``): clients
exist as descriptors over a packed shard assignment, full
``FLClient``/``Model`` state is one training client per process,
rebound onto each client's descriptor on demand, and per-client residue
lives in one registry keyed by client id: personalized weights
(``registry``), the last upload (``last_updates``, the only copy of it,
which the server reads in place) and the defense's state.  Every
trajectory is bitwise-identical to the eager plane.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.data.partition import MembershipSplit, client_shards
from repro.data.synthetic import Dataset
from repro.fl.behavior import make_behavior_for_config
from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.costs import CostMeter
from repro.fl.executor import (
    ClientTask,
    client_drops,
    make_executor,
    round_start_rng,
)
from repro.fl.network import dense_nbytes
from repro.fl.server import FLServer
from repro.fl.virtual import VirtualClientFleet
from repro.nn.model import Model
from repro.privacy.defenses.base import Defense


@dataclass
class RoundRecord:
    """Metrics captured after one FL round."""

    round_index: int
    global_accuracy: float
    mean_client_accuracy: float
    participating: list[int]
    #: Fleet participation: the sampled cohort partitions into clients
    #: whose updates were folded (``completed``), clients that dropped
    #: out before reporting (``dropped``), and survivors beyond the
    #: completion threshold (``stragglers``).  Only ``completed``
    #: clients train.
    #: At default fleet settings completed == participating and the
    #: other two are empty.
    completed: list[int] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)
    stragglers: list[int] = field(default_factory=list)
    #: Robustness plane: the sampled cohort's adversarial clients
    #: (per ``config.adversary`` / ``adversary_fraction``) and the
    #: clients this round's robust aggregator rejected outright (norm
    #: clustering only; coordinate-wise rules trim per coordinate and
    #: never reject whole clients).  Both empty at honest/fedavg
    #: defaults.
    adversaries: list[int] = field(default_factory=list)
    filtered: list[int] = field(default_factory=list)


@dataclass
class History:
    """Round-by-round record of a federated run."""

    records: list[RoundRecord] = field(default_factory=list)

    @property
    def final_global_accuracy(self) -> float:
        """Global-model test accuracy after the last evaluated round."""
        if not self.records:
            raise RuntimeError("simulation has not run yet")
        return self.records[-1].global_accuracy

    @property
    def final_client_accuracy(self) -> float:
        """Mean personalized-model test accuracy (Appendix A utility)."""
        if not self.records:
            raise RuntimeError("simulation has not run yet")
        return self.records[-1].mean_client_accuracy


class FederatedSimulation:
    """End-to-end federated run over a membership split."""

    def __init__(self, split: MembershipSplit,
                 model_factory: Callable[[np.random.Generator], Model],
                 config: FLConfig, defense: Defense | None = None, *,
                 dirichlet_alpha: float = math.inf) -> None:
        self.split = split
        self.config = config
        self.defense = defense or Defense()
        if self.defense.requires_full_cohort and (
                config.drop_rate > 0.0
                or config.completion_threshold < 1.0):
            raise ValueError(
                f"{type(self.defense).__name__} requires the full "
                f"cohort (pairwise masks do not cancel with missing "
                f"clients) but drop_rate={config.drop_rate} / "
                f"completion_threshold={config.completion_threshold} "
                f"permit short rounds; use drop_rate=0 and "
                f"completion_threshold=1.0, or a different defense")
        self.cost_meter = CostMeter()
        self.shards = client_shards(split, config.num_clients, config.seed,
                                    dirichlet_alpha)

        # Virtual-client plane: ONE template model (the eager plane
        # built N identical copies from the same seeded factory) and a
        # fleet that rebinds one training FLClient, built on the
        # template, onto each client on demand; the executor's
        # registry holds every client's rows.
        template = model_factory(np.random.default_rng(config.seed))
        self._layout = template.weight_layout()
        if np.dtype(config.dtype) != self._layout.dtype:
            raise ValueError(
                f"FLConfig.dtype={config.dtype!r} but the model factory "
                f"builds {self._layout.dtype.name} models; pass the "
                f"config dtype through to build_model")
        self.fleet = VirtualClientFleet(
            split.source, self.shards, template, config, self.defense,
            name=f"{split.source.name}/members")
        self.server = FLServer(
            initial_weights=template.get_store(),
            config=config,
            defense=self.defense,
            rng=np.random.default_rng((config.seed, 2)),
            cost_meter=self.cost_meter,
        )
        # Robustness plane: which clients are adversarial is a seeded
        # pure function of the config; HONEST keeps the training path
        # byte-for-byte the pre-robustness code.
        self.behavior = make_behavior_for_config(config)
        self.executor = make_executor(
            self.fleet, self.defense, self._layout, config,
            behavior=self.behavior, cost_meter=self.cost_meter,
            test=split.nonmembers)
        #: Every client's rows: personalized weights (the mapping),
        #: last upload and defense state.
        self.registry = self.executor.registry
        #: Each client's last transmitted (post-defense) upload: the
        #: one copy of it, which the server's rules read in place.
        self.last_updates = self.registry.uploads
        self.history = History()

    def client_dataset(self, client_id: int) -> Dataset:
        """Materialize one client's local dataset."""
        return self.fleet.dataset(client_id)

    # ------------------------------------------------------------------
    def run(self) -> History:
        """Execute all configured FL rounds."""
        try:
            for round_index in range(self.config.rounds):
                self.run_round(round_index)
        finally:
            # Reap worker processes; the executor rebuilds its pool
            # lazily if more rounds are run afterwards.
            self.executor.close()
        return self.history

    def run_round(self, round_index: int) -> RoundRecord | None:
        """Execute a single FL round; returns the record if evaluated.

        Fleet-plane round closing: the sampled cohort's dropouts are
        decided up front from their dedicated per-cell streams, the
        round closes once ``completion_threshold`` of the cohort has
        reported (cohort order models arrival order), and survivors
        beyond that point are stragglers.  The completion set is thus
        fixed before any client trains, and the executor runs exactly
        it: dropouts and stragglers are recorded, never trained.
        Because the executor streams results and the server folds each
        update on arrival, a dense per-cohort update matrix never
        exists.
        """
        config = self.config
        cohort = self.server.select_clients(round_index)
        dropped = [cid for cid in cohort
                   if client_drops(config.seed, round_index, cid,
                                   config.drop_rate)]
        dropped_set = set(dropped)
        survivors = [cid for cid in cohort if cid not in dropped_set]
        needed = max(1, math.ceil(
            config.completion_threshold * len(cohort)))
        if len(survivors) < needed:
            raise RuntimeError(
                f"round {round_index} cannot close: {len(survivors)} of "
                f"{len(cohort)} sampled clients completed but "
                f"completion_threshold={config.completion_threshold} "
                f"requires {needed}; lower the threshold or the "
                f"drop rate")
        completed = survivors[:needed]
        stragglers = survivors[needed:]

        # The defense sees the clients the round averages (CDP scales
        # its noise to them); secure aggregation refuses short rounds,
        # so for it they are the whole cohort.
        self.defense.on_round_start(
            round_index, completed, self.server.global_weights,
            round_start_rng(config.seed, round_index))
        # Per-layer accounting: a layer-wise defense publishes its
        # per-layer budget schedule after resolving it against the
        # round's layout.
        segment_report = getattr(self.defense, "segment_report", None)
        if segment_report is not None:
            self.cost_meter.record_segment_budget(segment_report())
        global_store = self.server.global_weights
        download_bytes = dense_nbytes(global_store)
        # Rows for every completing client before any task runs: the
        # registry grows only here, between rounds, after the workers
        # fork (they keep what they inherit mapped).
        self.executor.start()
        for cid in self.registry.assign(completed):
            self.defense.init_state(
                self.registry.rows.state[self.registry.row(cid)],
                global_store)
        tasks = [
            ClientTask(
                round_index=round_index,
                client_id=cid,
                global_buffer=global_store.buffer,
                row=self.registry.row(cid),
                cohort=tuple(completed),
            )
            for cid in completed
        ]

        def stream_updates():
            """Yield each completing client's update as it arrives."""
            for result in self.executor.iter_round(tasks):
                self.cost_meter.merge_client_round(
                    result.train_seconds, result.defense_seconds)
                self.cost_meter.record_client_plane(
                    materializations=result.materializations)
                update = ClientUpdate(
                    client_id=result.client_id,
                    weights=self.last_updates[result.client_id],
                    num_samples=result.num_samples,
                )
                self.cost_meter.record_traffic(
                    download=download_bytes,
                    upload=self.defense.upload_nbytes(update.weights,
                                                      global_store))
                yield update

        # The completion set is fixed before aggregation starts, so the
        # mixing total is known up front and the streaming accumulator
        # folds pre-normalized coefficients — reproducing the dense
        # FedAvg reduction exactly (see fl.aggregation).
        # Weighted straight off the packed shard sizes: no client is
        # materialized to answer "how big is your shard".
        total_samples = float(sum(
            self.shards.num_samples(cid) for cid in completed))
        self.server.aggregate(stream_updates(), expected=len(cohort),
                              total_samples=total_samples)
        # Per-client defense state is the registry's state rows; the
        # defense adds whatever it keeps besides.
        self.cost_meter.record_defense_state(
            self.defense.state_bytes() + self.registry.state_nbytes)
        # Serial rounds bind in the parent; parallel rounds in the
        # workers (reported per result above).  Max-merging both keeps
        # the report meaningful either way.
        self.cost_meter.record_client_plane(
            materializations=self.fleet.materializations,
            registry_bytes=self.registry.nbytes)
        self.cost_meter.record_participation(
            sampled=len(cohort), completed=len(completed),
            dropped=len(dropped), stragglers=len(stragglers))
        adversaries = sorted(
            set(cohort) & self.behavior.adversaries)
        filtered = list(self.server.last_filtered)
        self.cost_meter.record_robustness(
            adversarial=len(adversaries), filtered=len(filtered))

        if (round_index + 1) % self.config.eval_every and \
                round_index + 1 != self.config.rounds:
            return None
        record = RoundRecord(
            round_index=round_index,
            global_accuracy=self.global_accuracy(),
            mean_client_accuracy=self.mean_client_accuracy(),
            participating=cohort,
            completed=completed,
            dropped=dropped,
            stragglers=stragglers,
            adversaries=adversaries,
            filtered=filtered,
        )
        self.history.records.append(record)
        # the scratch idles until the next round trains: free it now
        self.fleet.eval_model().release_scratch()
        return record

    # ------------------------------------------------------------------
    # evaluation views
    # ------------------------------------------------------------------
    def global_model(self) -> Model:
        """The server's current global model (the client-side attack
        target: every participant receives these exact weights).

        This is the fleet's one model (:meth:`VirtualClientFleet.eval_model`)
        loaded with the global weights: it stays valid until the next
        load into that model (another evaluation view, an evaluated
        round, or training).
        """
        model = self.fleet.eval_model()
        model.set_store(self.server.global_weights)
        return model

    def transmitted_model(self, client_id: int) -> Model:
        """A client's last *transmitted* model — the server-side
        attacker's view of that client (post-defense).

        The fleet's one model loaded with the client's upload, valid
        until the next load into that model (see :meth:`global_model`).
        """
        if client_id not in self.last_updates:
            raise KeyError(f"client {client_id} has not participated yet")
        model = self.fleet.eval_model()
        model.set_store(self.last_updates[client_id])
        return model

    def global_accuracy(self) -> float:
        """Global model accuracy on the held-out non-member test set.

        Routed through the fleet's one model (predictions depend only
        on the loaded weights), so evaluation allocates no fresh model.
        """
        test = self.split.nonmembers
        return self.fleet.evaluate_weights(
            self.server.global_weights, test.x, test.y)

    def mean_client_accuracy(self) -> float:
        """Mean personalized-model accuracy on the test set (Appendix A).

        Evaluates exactly the clients present in the personal-weights
        registry — the ones that have trained — in ascending id order
        (the eager plane's order).  The executor scores them where its
        rows live: in-process on the fleet's one model, or in the pool's
        workers while it is open, so the parent never maps the personal
        plane (:meth:`~repro.fl.executor.RoundExecutor.personal_accuracies`).
        """
        scores = self.executor.personal_accuracies(
            self.registry.client_ids())
        if not scores:
            return float("nan")
        return float(np.mean(scores))
