"""FL client: local training plus the defense hook pipeline.

Each round a participating client (i) passes the downloaded global
model through ``defense.on_receive_global`` (DINAR's personalization
step), (ii) trains locally — the defense may impose its optimizer
(DINAR's adaptive gradient descent) — and (iii) passes the resulting
weights, with the global model it received, through
``defense.on_send_update`` (DINAR's obfuscation, DP noise, compression
or masking) before upload.

:class:`FLClient` is the per-process *trainer* of the virtual-client
plane (see ``repro.fl.virtual``): the fleet builds one on its template
model and :meth:`FLClient.bind` rebinds it onto each client's
descriptor without reallocating anything.  A round returns its outputs
as buffers — the transmitted update and the *personalized* weights
(post-training, pre-upload transform), which §4.3 says the client
predicts with — and the trainer keeps no per-client state afterwards:
the executor copies them into the client's registry rows, the one
place they live.  Where the defense's ``on_receive_global`` restores
the personalized weights from the upload and the state row, the
registry keeps no copy of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.data.loader import iterate_batches
from repro.fl.behavior import ClientBehavior, behavior_rng
from repro.fl.config import FLConfig
from repro.fl.executor import ClientRoundResult
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import make_optimizer
from repro.nn.store import WeightStore
from repro.privacy.defenses.base import Defense

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.fl.virtual import ClientDescriptor


@dataclass
class ClientUpdate:
    """What the server reads of one client's upload."""

    client_id: int
    weights: WeightStore
    num_samples: int


def add_proximal_term(model: Model, mu: float,
                      anchor: np.ndarray) -> None:
    """Add the FedProx gradient ``mu * (w - w_anchor)`` in place.

    One flat vector op per ``Layout.param_segments`` run of the
    model's gradient buffer — non-trainable coordinates (batch-norm
    running statistics) carry no gradient and must stay exactly zero,
    so the whole-buffer form is deliberately avoided.  ``anchor`` is a
    flat snapshot of the round-start weight buffer.
    """
    grads, params = model.grad_vector, model.weights.buffer
    for run in model.weight_layout().param_segments:
        grads[run] += mu * (params[run] - anchor[run])


class FLClient:
    """The process's trainer, rebound onto one client per round."""

    def __init__(self, model: Model, config: FLConfig,
                 defense: Defense) -> None:
        self.model = model
        self.config = config
        self.defense = defense
        self.loss = SoftmaxCrossEntropy()
        self._descriptor: "ClientDescriptor | None" = None

    def bind(self, descriptor: "ClientDescriptor") -> None:
        """Point the trainer at another client's descriptor.

        Nothing is reallocated: the model keeps its weight/gradient
        buffers and workspace arena (``train_round`` overwrites the
        whole weight buffer from the received global store and rebuilds
        the optimizer with zeroed state, so a reused model is bitwise
        identical to a fresh one).
        """
        self._descriptor = descriptor

    @property
    def client_id(self) -> int:
        """The bound client's id."""
        return self._descriptor.client_id

    @property
    def num_samples(self) -> int:
        """The bound client's shard size (FedAvg weighting factor),
        answered from its descriptor without materializing data."""
        return self._descriptor.num_samples

    def train_round(self, global_weights: WeightStore,
                    round_index: int, *, rng: np.random.Generator,
                    behavior: ClientBehavior | None = None,
                    state: np.ndarray | None = None
                    ) -> ClientRoundResult:
        """Run one FL round: personalize, train locally, protect, upload.

        Every source of randomness this round consumes — dropout
        masks, batch shuffles, defense noise, DP-SGD noise — draws
        from ``rng``, the stream spawned for the ``(round, client)``
        cell, so the round's outcome is independent of which process
        executes it and of every other client (bitwise reproducibility
        across executors).

        ``behavior`` is the run's :class:`ClientBehavior`; for honest
        clients (and for ``behavior=None``) the round is byte-for-byte
        the pre-robustness code path.  Adversarial clients may poison
        their training data, skip training, or corrupt the weights
        they hand to the defense pipeline — corruption draws from the
        cell's dedicated behavior stream, never from ``rng``.

        ``state`` is the client's defense-state row, handed to both
        defense hooks (``None`` keeps no state).

        The result's ``personal_buffer`` is the training model's live
        weight buffer, which the trainer's next round overwrites.
        """
        client_id = self.client_id
        received = self.defense.on_receive_global(client_id,
                                                  global_weights, state)
        self.model.set_store(received)

        adversarial = behavior is not None \
            and behavior.is_adversary(client_id)
        start_store = self.model.get_store() if adversarial else None

        start = time.perf_counter()
        data = self._descriptor.materialize_data()
        if adversarial:
            if not behavior.skips_training(client_id):
                x, y = behavior.poison_data(
                    client_id, data.x, data.y, data.num_classes)
                self._train_local(x, y, rng)
        else:
            self._train_local(data.x, data.y, rng)
        train_seconds = time.perf_counter() - start

        # The personalized model is the post-training weights with the
        # private layer intact; the upload is transformed from a copy.
        outbound = self.model.get_store()
        if adversarial:
            outbound = behavior.corrupt_update(
                client_id, outbound, start_store,
                behavior_rng(self.config.seed, round_index, client_id))

        start = time.perf_counter()
        sent = self.defense.on_send_update(
            client_id, outbound, global_weights, self.num_samples, rng,
            state)
        defense_seconds = time.perf_counter() - start

        return ClientRoundResult(
            client_id=client_id,
            update_buffer=sent.buffer,
            personal_buffer=self.model.weights.buffer,
            num_samples=self.num_samples,
            train_seconds=train_seconds,
            defense_seconds=defense_seconds,
        )

    def _train_local(self, x: np.ndarray, y: np.ndarray,
                     rng: np.random.Generator) -> None:
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
            self.model, self.config.lr, rng=rng)
        if optimizer is None:
            optimizer = make_optimizer(
                self.config.optimizer, self.model, self.config.lr)
        notify = getattr(optimizer, "notify_batch_size", None)
        mu = self.config.proximal_mu
        anchor = self.model.weights.buffer.copy() if mu > 0 else None
        for _ in range(self.config.local_epochs):
            for bx, by in iterate_batches(
                    x, y, self.config.batch_size, rng):
                if notify is not None:
                    notify(len(bx))  # DP-SGD scales noise by batch size
                self.model.loss_and_grad(bx, by, self.loss)
                if mu > 0:
                    add_proximal_term(self.model, mu, anchor)
                optimizer.step()
