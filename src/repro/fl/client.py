"""FL client: local training plus the defense hook pipeline.

Each round a participating client (i) passes the downloaded global
model through ``defense.on_receive_global`` (DINAR's personalization
step), (ii) trains locally — the defense may impose its optimizer
(DINAR's adaptive gradient descent) — and (iii) passes the resulting
weights through ``defense.on_send_update`` (DINAR's obfuscation, DP
noise, compression or masking) before upload.

The client keeps its *personalized* weights (post-training, pre-upload
transform) for its own predictions, matching §4.3: "the resulting
personalized client models are used by the clients for their
predictions".

Virtual-client plane: an ``FLClient`` is no longer necessarily a
long-lived per-client object.  :meth:`FLClient.bind` rebinds an
existing instance — model buffers, optimizer-free round state and all —
onto another client's descriptor without reallocating anything, which
is what lets one model per process serve an unbounded fleet (see
``repro.fl.virtual``).  Bound clients materialize their dataset lazily
from the descriptor's shard view and store personalized weights in the
fleet's flat-buffer registry rather than on the instance, so nothing
per-client survives a rebind except what the registry holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.data.loader import iterate_batches
from repro.data.synthetic import Dataset
from repro.fl.behavior import ClientBehavior, behavior_rng
from repro.fl.config import FLConfig
from repro.fl.costs import CostMeter
from repro.fl.executor import round_rng
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.model import Model
from repro.nn.optim import make_optimizer
from repro.nn.store import WeightStore
from repro.privacy.defenses.base import Defense

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.fl.virtual import ClientDescriptor, PersonalWeightsRegistry


@dataclass
class ClientUpdate:
    """What a client transmits to the server after local training."""

    client_id: int
    weights: WeightStore
    num_samples: int
    #: Wall time this client spent training in *this* round.
    train_seconds: float
    #: Wall time this client's defense hooks took in *this* round.
    defense_seconds: float = 0.0


def add_proximal_term(model: Model, mu: float,
                      anchor: np.ndarray) -> None:
    """Add the FedProx gradient ``mu * (w - w_anchor)`` in place.

    One flat vector op per maximal trainable segment of the model's
    gradient buffer — non-trainable coordinates (batch-norm running
    statistics) carry no gradient and must stay exactly zero, so the
    whole-buffer form is deliberately avoided.  ``anchor`` is a flat
    snapshot of the round-start weight buffer.
    """
    model.segment_view().add_scaled_difference(
        model.grad_vector, mu, model.weights.buffer, anchor)


class FLClient:
    """One cross-silo FL participant."""

    def __init__(self, client_id: int, model: Model,
                 data: Dataset | None,
                 config: FLConfig, defense: Defense,
                 rng: np.random.Generator | None = None,
                 loss: Loss | None = None,
                 cost_meter: CostMeter | None = None,
                 eval_model_provider:
                 "Callable[[], Model] | None" = None) -> None:
        if data is not None and len(data) == 0:
            raise ValueError(f"client {client_id} has no data")
        self.client_id = client_id
        self.model = model
        self._data = data
        self._descriptor: "ClientDescriptor | None" = None
        self._registry: "PersonalWeightsRegistry | None" = None
        self._personal: WeightStore | None = None
        self._eval_provider = eval_model_provider
        self._eval_cache: Model | None = None
        self.config = config
        self.defense = defense
        # Placeholder stream until the first round replaces it with the
        # (round, client)-spawned one; see ``train_round``.
        self.rng = rng if rng is not None \
            else np.random.default_rng((config.seed, 1, client_id))
        self.loss = loss or SoftmaxCrossEntropy()
        self.cost_meter = cost_meter or CostMeter()
        model.attach_rng(self.rng)

    # ------------------------------------------------------------------
    # virtual-client plane: descriptor binding and residue
    # ------------------------------------------------------------------
    def bind(self, descriptor: "ClientDescriptor",
             registry: "PersonalWeightsRegistry | None" = None) -> None:
        """Rebind this instance onto another client's descriptor.

        Nothing is reallocated: the model keeps its weight/gradient
        buffers and workspace arena (``train_round`` overwrites the
        whole weight buffer from the received global store and rebuilds
        the optimizer with zeroed state, so a reused model is bitwise
        identical to a fresh one).  The dataset is dropped and lazily
        rematerialized from the descriptor's shard view on first
        access, and any local personalized weights are cleared — after
        a rebind the only per-client residue lives in ``registry``,
        which is what makes model reuse alias-free.
        """
        self.client_id = descriptor.client_id
        self._data = None
        self._descriptor = descriptor
        self._registry = registry
        self._personal = None
        self.rng = np.random.default_rng(
            (self.config.seed, 1, descriptor.client_id))
        self.model.attach_rng(self.rng)

    @property
    def data(self) -> Dataset:
        """The local dataset; descriptor-bound clients materialize the
        shard subset on first access."""
        if self._data is None:
            if self._descriptor is None:
                raise RuntimeError(
                    f"client {self.client_id} has neither a dataset "
                    f"nor a descriptor to materialize one from")
            self._data = self._descriptor.materialize_data()
        return self._data

    @data.setter
    def data(self, dataset: Dataset) -> None:
        self._data = dataset

    @property
    def personal_weights(self) -> WeightStore | None:
        """Personalized weights — the client's §4.3 prediction state.

        Registry-backed when bound through the virtual plane (a
        zero-copy view of the client's registry row; ``None`` until the
        client first trains), instance-local otherwise.
        """
        if self._registry is not None:
            return self._registry.get(self.client_id)
        return self._personal

    @personal_weights.setter
    def personal_weights(self, weights: WeightStore | None) -> None:
        if self._registry is not None and weights is not None:
            self._registry.put(self.client_id, weights.buffer)
            return
        self._personal = weights

    @property
    def num_samples(self) -> int:
        """Local dataset size (FedAvg weighting factor).

        Answered from the descriptor when one is bound, so weighting a
        fleet never forces dataset materialization.
        """
        if self._data is None and self._descriptor is not None:
            return self._descriptor.num_samples
        return len(self.data)

    def train_round(self, global_weights: WeightStore,
                    round_index: int, *,
                    rng: np.random.Generator | None = None,
                    behavior: ClientBehavior | None = None) -> ClientUpdate:
        """Run one FL round: personalize, train locally, protect, upload.

        Every source of randomness this round consumes — dropout
        masks, batch shuffles, defense noise, DP-SGD noise — draws
        from one stream spawned for the ``(round, client)`` cell, so
        the round's outcome is independent of which process executes
        it and of every other client (bitwise reproducibility across
        executors).

        ``behavior`` is the run's :class:`ClientBehavior`; for honest
        clients (and for ``behavior=None``) the round is byte-for-byte
        the pre-robustness code path.  Adversarial clients may poison
        their training data, skip training, or corrupt the weights
        they hand to the defense pipeline — corruption draws from the
        cell's dedicated behavior stream, never from ``rng``.
        """
        if rng is None:
            rng = round_rng(self.config.seed, round_index, self.client_id)
        self.rng = rng
        self.model.attach_rng(rng)
        received = self.defense.on_receive_global(
            self.client_id, global_weights)
        self.model.set_store(received)

        adversarial = behavior is not None \
            and behavior.is_adversary(self.client_id)
        start_store = self.model.get_store() if adversarial else None

        # The cost meter may be shared across rounds, so this round's
        # own wall time is the meter's delta around each phase — not
        # the cumulative total.
        trained_before = self.cost_meter.report.client_train_seconds
        with self.cost_meter.client_training():
            if adversarial:
                if not behavior.skips_training(self.client_id):
                    x, y = behavior.poison_data(
                        self.client_id, self.data.x, self.data.y,
                        self.data.num_classes)
                    self._train_local(x, y)
            else:
                self._train_local(self.data.x, self.data.y)
        train_seconds = self.cost_meter.report.client_train_seconds \
            - trained_before

        # Personalized model = post-training weights with the private
        # layer intact; this is what the client uses for predictions.
        self.personal_weights = self.model.get_store()

        outbound = self.model.get_store()
        if adversarial:
            outbound = behavior.corrupt_update(
                self.client_id, outbound, start_store,
                behavior_rng(self.config.seed, round_index,
                             self.client_id))

        defended_before = self.cost_meter.report.client_defense_seconds
        with self.cost_meter.client_defense():
            sent = self.defense.on_send_update(
                self.client_id, outbound,
                self.num_samples, self.rng)
        defense_seconds = self.cost_meter.report.client_defense_seconds \
            - defended_before
        self.cost_meter.record_defense_state(self.defense.state_bytes())

        return ClientUpdate(
            client_id=self.client_id,
            weights=sent,
            num_samples=self.num_samples,
            train_seconds=train_seconds,
            defense_seconds=defense_seconds,
        )

    def _train_local(self, x: np.ndarray, y: np.ndarray) -> None:
        """Local epochs with the defense-selected optimizer.

        The optimizer is rebuilt each round with zeroed state, matching
        Algorithm 1 line 8 (``G <- 0`` at the start of the round).
        With ``config.proximal_mu > 0`` a FedProx proximal term
        ``mu * (w - w_round_start)`` is added to every gradient,
        limiting client drift on non-IID shards (extension).
        ``(x, y)`` is the client's local data — possibly poisoned by
        an adversarial :class:`ClientBehavior`.
        """
        optimizer = self.defense.make_optimizer(
            self.model, self.config.lr, rng=self.rng)
        if optimizer is None:
            optimizer = make_optimizer(
                self.config.optimizer, self.model, self.config.lr)
        notify = getattr(optimizer, "notify_batch_size", None)
        mu = self.config.proximal_mu
        anchor = self.model.weights.buffer.copy() if mu > 0 else None
        for _ in range(self.config.local_epochs):
            for bx, by in iterate_batches(
                    x, y, self.config.batch_size,
                    self.rng):
                if notify is not None:
                    notify(len(bx))  # DP-SGD scales noise by batch size
                self.model.loss_and_grad(bx, by, self.loss)
                if mu > 0:
                    add_proximal_term(self.model, mu, anchor)
                optimizer.step()

    def _eval_model(self) -> Model:
        """The reused evaluation model: fleet-shared when bound through
        the virtual plane, a lazily cloned singleton otherwise.
        Predictions depend only on the weights loaded before each use,
        so sharing one model across clients is bitwise-safe."""
        if self._eval_provider is not None:
            return self._eval_provider()
        if self._eval_cache is None:
            self._eval_cache = self.model.clone()
        return self._eval_cache

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of the personalized model on the given samples."""
        personal = self.personal_weights
        if personal is None:
            raise RuntimeError(
                f"client {self.client_id} has not trained yet")
        model = self._eval_model()
        model.set_store(personal)
        return accuracy(model.predict(x), y)
