"""Federated simulation orchestrator.

Wires datasets, clients, server and a defense into the paper's §2.1
round loop and records everything the evaluation needs afterwards: the
global model, each client's transmitted (post-defense) update — the
server-side attacker's view — and each client's personalized model —
what the client actually predicts with.

Client training within a round is delegated to a
:class:`~repro.fl.executor.RoundExecutor` (``config.workers`` selects
serial or process-parallel execution; both are bitwise identical).
The simulation ships each client's round state through the executor
explicitly — global weights out, update/personal weights and defense
state back — and merges the returned cost/traffic deltas, so no
client-side object is mutated behind the orchestrator's back.

Rounds are **streaming**: executor results are consumed lazily and
folded straight into the server's constant-memory accumulator, and the
fleet knobs (``sample_fraction``, ``drop_rate``,
``completion_threshold``) turn the round loop into a partial-
participation, straggler-tolerant pipeline whose defaults reproduce
the pre-fleet trajectories bitwise (see :meth:`run_round`).

The client plane is **virtual** (see ``repro.fl.virtual``): clients
exist as descriptors over a packed shard assignment, full
``FLClient``/``Model`` state is materialized on demand from a pool of
at most ``config.max_materialized`` instances, and per-client residue
(personalized weights) lives in a flat-buffer registry keyed by client
id.  ``simulation.clients`` is the fleet façade — indexing and
iteration still hand back live ``FLClient`` objects — and every
trajectory is bitwise-identical to the eager plane at any pool
capacity.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.data.partition import (
    ClientShards,
    MembershipSplit,
    partition_dirichlet,
    partition_iid,
)
from repro.data.synthetic import Dataset
from repro.fl.behavior import make_behavior_for_config
from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.costs import CostMeter
from repro.fl.executor import ClientTask, client_drops, make_executor
from repro.fl.network import NetworkModel, TrafficMeter, dense_nbytes
from repro.fl.server import FLServer
from repro.fl.virtual import PersonalWeightsRegistry, VirtualClientFleet
from repro.nn.model import Model
from repro.nn.store import WeightStore
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
    #: out before reporting (``dropped``), and survivors that reported
    #: after the round had already closed (``stragglers``, discarded).
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
                 dirichlet_alpha: float = math.inf,
                 network: NetworkModel | None = None) -> None:
        self.split = split
        self.model_factory = model_factory
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
        self.traffic_meter = TrafficMeter(network)
        self.rng = np.random.default_rng(config.seed)

        members = split.members
        if math.isinf(dirichlet_alpha):
            shard_list = partition_iid(len(members), config.num_clients,
                                       self.rng)
        else:
            shard_list = partition_dirichlet(
                members.y, config.num_clients, dirichlet_alpha, self.rng,
                num_classes=members.num_classes)
        self.shards = ClientShards.pack(shard_list)

        # Virtual-client plane: ONE template model (the eager plane
        # built N identical copies from the same seeded factory), a
        # flat-buffer registry for every client's personalized weights,
        # and a fleet façade that materializes FLClients on demand from
        # a pool of at most config.max_materialized model instances.
        template = model_factory(np.random.default_rng(config.seed))
        self._layout = template.weight_layout()
        if np.dtype(config.dtype) != self._layout.dtype:
            raise ValueError(
                f"FLConfig.dtype={config.dtype!r} but the model factory "
                f"builds {self._layout.dtype.name} models; pass the "
                f"config dtype through to build_model")
        self.registry = PersonalWeightsRegistry(self._layout)
        self.fleet = VirtualClientFleet(
            members, self.shards, template, config, self.defense,
            registry=self.registry)
        self.clients = self.fleet
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
            behavior=self.behavior, cost_meter=self.cost_meter)
        self.last_updates: dict[int, WeightStore] = {}
        self.history = History()

    @property
    def client_data(self):
        """Lazy per-client dataset views (materialized on access)."""
        return self.fleet.datasets

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
        beyond that point are stragglers whose results are discarded.
        Because the executor streams lazily and the server folds each
        update on arrival, a dense per-cohort update matrix never
        exists and the serial executor never even trains a straggler.
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

        self.defense.on_round_start(
            round_index, cohort, self.server.global_weights,
            np.random.default_rng((config.seed, 3, round_index)))
        # Segment-plane accounting: a layer-wise defense publishes its
        # per-segment budget schedule after resolving it against the
        # round's layout.
        segment_report = getattr(self.defense, "segment_report", None)
        if segment_report is not None:
            self.cost_meter.record_segment_budget(segment_report())
        download_bytes = dense_nbytes(self.server.global_weights)
        global_store = self.server.global_weights
        round_state = self.defense.export_round_state()
        tasks = [
            ClientTask(
                round_index=round_index,
                client_id=cid,
                global_buffer=global_store.buffer,
                client_state=self.defense.export_client_state(cid),
                round_state=round_state,
                dropped=cid in dropped_set,
            )
            for cid in cohort
        ]

        def stream_updates():
            """Yield each completing client's update, closing the
            round (and abandoning the executor's stream) once the
            threshold is met."""
            folded = 0
            for result in self.executor.iter_round(tasks):
                self.defense.import_client_state(
                    result.client_id, result.client_state)
                self.registry.put(result.client_id,
                                  result.personal_buffer)
                self.cost_meter.merge_client_round(
                    result.train_seconds, result.defense_seconds)
                self.cost_meter.record_defense_state(
                    result.defense_state_bytes)
                self.cost_meter.record_client_plane(
                    live_models=result.pool_live,
                    materializations=result.pool_materializations)
                update = ClientUpdate(
                    client_id=result.client_id,
                    weights=WeightStore(self._layout,
                                        result.update_buffer),
                    num_samples=result.num_samples,
                    train_seconds=result.train_seconds,
                    defense_seconds=result.defense_seconds,
                )
                self.last_updates[update.client_id] = update.weights
                self.traffic_meter.record_exchange(
                    round_index, update.client_id, download_bytes,
                    self.defense.upload_nbytes(update.weights))
                yield update
                folded += 1
                if folded >= needed:
                    break

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
        # The parent's defense holds the merged per-client state, so
        # its memory footprint is authoritative (worker copies only
        # ever see one client's slice).
        self.cost_meter.record_defense_state(self.defense.state_bytes())
        # Serial rounds run on the parent's pool; parallel rounds on
        # the workers' (reported per result above).  Max-merging both
        # keeps the report meaningful either way.
        self.cost_meter.record_client_plane(
            live_models=self.fleet.live_models,
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
        return record

    # ------------------------------------------------------------------
    # evaluation views
    # ------------------------------------------------------------------
    def model_from_weights(self, weights: WeightStore) -> Model:
        """Fresh model instance loaded with the given weights."""
        model = self.model_factory(np.random.default_rng(self.config.seed))
        model.set_store(weights)
        return model

    def global_model(self) -> Model:
        """The server's current global model (the client-side attack
        target: every participant receives these exact weights)."""
        return self.model_from_weights(self.server.global_weights)

    def transmitted_model(self, client_id: int) -> Model:
        """A client's last *transmitted* model — the server-side
        attacker's view of that client (post-defense)."""
        if client_id not in self.last_updates:
            raise KeyError(f"client {client_id} has not participated yet")
        return self.model_from_weights(self.last_updates[client_id])

    def global_accuracy(self) -> float:
        """Global model accuracy on the held-out non-member test set.

        Routed through the fleet's shared eval model (predictions
        depend only on the loaded weights), so evaluation allocates no
        fresh model.
        """
        test = self.split.nonmembers
        return self.fleet.evaluate_weights(
            self.server.global_weights, test.x, test.y)

    def mean_client_accuracy(self) -> float:
        """Mean personalized-model accuracy on the test set (Appendix A).

        Evaluates exactly the clients present in the personal-weights
        registry — the ones that have trained — in ascending id order
        (the eager plane's order), loading each registry row into the
        one shared eval model.
        """
        test = self.split.nonmembers
        scores = [
            self.fleet.evaluate_weights(self.registry.get(client_id),
                                        test.x, test.y)
            for client_id in self.registry.client_ids()
        ]
        if not scores:
            return float("nan")
        return float(np.mean(scores))
