"""Adversarial client behaviors: the robustness plane's client side.

The paper's defense matrix assumes every client is honest.  This module
adds the scenario axis it never tested: a pluggable
:class:`ClientBehavior` applied at the client boundary (inside
``execute_client_task`` via :meth:`FLClient.train_round`), modelling
the standard poisoning/free-riding adversaries of the Byzantine-FL
literature:

* ``honest`` — the no-op default; the training path is byte-for-byte
  the pre-robustness code (all 19 golden trajectory pins hold).
* ``byzantine`` — trains honestly, then transmits the *boosted
  sign-flipped* update ``start - scale * (trained - start)``: the
  local training delta reversed and amplified, the classic
  model-poisoning attack on mean-based aggregation.
* ``byzantine_gaussian`` — transmits ``start + scale * N(0, I)``:
  pure-noise weights, the "random faults" byzantine variant.
* ``label_flip`` — trains on ``y -> (num_classes - 1) - y``, a data
  poisoning attack whose update *looks* statistically ordinary.
* ``free_rider`` — skips local training entirely and transmits the
  received weights plus camouflage noise, still claiming its dataset
  size for the FedAvg mixing weight.

Determinism is inherited from the executor design: every behavior
noise draw comes from a dedicated per-``(round, client)``
SeedSequence stream (:func:`behavior_rng`), disjoint from the training
and dropout streams, so serial and parallel runs stay bitwise
identical under every behavior mix and honest clients' draws are never
perturbed by the presence of adversaries.

Which clients are adversarial is a pure function of the config:
:func:`select_adversaries` draws ``round(fraction * num_clients)``
client ids from the dedicated ``(seed, 7)`` stream once per run.
"""

from __future__ import annotations

import numpy as np

from repro.nn.store import WeightStore

#: Spawn-key tag of the per-(round, client) behavior stream.  Training
#: uses 2-element spawn keys and dropout uses the 3-element tag 0xD20
#: (see ``fl.executor``); 0xADE keeps this family disjoint from both.
_BEHAVIOR_KEY = 0xADE

#: Spawn-key tag of the run-level adversary-selection stream.  Existing
#: 2-element streams: server (seed, 2), split (seed, 17), eval
#: (seed, 23), cohort sampling (seed, 5, round).
_ADVERSARY_STREAM = 7


def behavior_rng(seed: int, round_index: int,
                 client_id: int) -> np.random.Generator:
    """The dedicated behavior-noise stream of one ``(round, client)``
    cell — a pure function of the cell, like the training stream, so
    adversarial noise is independent of execution order and worker
    count."""
    sequence = np.random.SeedSequence(
        seed, spawn_key=(int(round_index), int(client_id), _BEHAVIOR_KEY))
    return np.random.default_rng(sequence)


def select_adversaries(num_clients: int, fraction: float,
                       seed: int) -> frozenset[int]:
    """The run's adversarial client ids: ``round(fraction * n)`` of
    them (at least 1 when the fraction is positive, never the whole
    population), drawn once from the ``(seed, 7)`` stream."""
    if fraction <= 0.0:
        return frozenset()
    k = max(1, int(round(fraction * num_clients)))
    k = min(k, num_clients - 1)
    rng = np.random.default_rng((seed, _ADVERSARY_STREAM))
    chosen = rng.choice(num_clients, size=k, replace=False)
    return frozenset(int(c) for c in chosen)


class ClientBehavior:
    """Honest behavior and the hook interface adversaries override.

    One behavior object per run (like :class:`Defense`), holding the
    set of adversarial client ids; every hook receives the client id
    and is a no-op for honest clients.  The object is picklable and
    crosses the executor's process boundary inside the worker context.
    """

    name = "honest"

    #: Whether :meth:`corrupt_update` makes an adversary's upload differ
    #: from the weights it trained, so the client registry must store
    #: personalized weights rather than derive them from the upload.
    corrupts_updates = False

    def __init__(self, adversaries: frozenset[int] = frozenset()) -> None:
        self.adversaries = frozenset(adversaries)

    def is_adversary(self, client_id: int) -> bool:
        """Whether this client deviates from the honest protocol."""
        return client_id in self.adversaries

    def skips_training(self, client_id: int) -> bool:
        """Whether this client never runs local training (free-riding)."""
        return False

    def poison_data(self, client_id: int, x: np.ndarray, y: np.ndarray,
                    num_classes: int) -> tuple[np.ndarray, np.ndarray]:
        """Transform the local training data before the round trains."""
        return x, y

    def corrupt_update(self, client_id: int, trained: WeightStore,
                       start: WeightStore,
                       rng: np.random.Generator) -> WeightStore:
        """Transform the weights the client is about to hand to its
        defense pipeline.

        ``start`` is the round-start model (post
        ``on_receive_global``), ``trained`` the post-training weights.
        Corruption happens *before* ``on_send_update`` so protocol
        invariants survive — secure aggregation's pairwise masks still
        cancel, DINAR still obfuscates — exactly as a real adversary
        that follows the wire protocol but poisons its payload.
        """
        return trained

    def describe(self) -> str:
        """One-line human-readable parameterization."""
        if not self.adversaries:
            return self.name
        return f"{self.name} x{len(self.adversaries)}"


#: The shared honest singleton (``behavior=None`` everywhere means this).
HONEST = ClientBehavior()


class ByzantineBehavior(ClientBehavior):
    """Model poisoning: boosted sign-flip or pure Gaussian updates."""

    corrupts_updates = True

    def __init__(self, adversaries: frozenset[int], *,
                 variant: str = "sign_flip", scale: float = 4.0) -> None:
        super().__init__(adversaries)
        if variant not in ("sign_flip", "gaussian"):
            raise ValueError(f"unknown byzantine variant {variant!r}; "
                             f"known: sign_flip, gaussian")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.variant = variant
        self.scale = float(scale)
        self.name = "byzantine" if variant == "sign_flip" \
            else "byzantine_gaussian"

    def corrupt_update(self, client_id: int, trained: WeightStore,
                       start: WeightStore,
                       rng: np.random.Generator) -> WeightStore:
        if not self.is_adversary(client_id):
            return trained
        dtype = trained.layout.dtype
        if self.variant == "gaussian":
            noise = rng.standard_normal(
                trained.layout.num_params).astype(dtype, copy=False)
            buffer = start.buffer + dtype.type(self.scale) * noise
        else:
            # start - scale * (trained - start): the training delta
            # reversed and amplified (scale 1.0 = the textbook flip).
            delta = trained.buffer - start.buffer
            buffer = start.buffer - dtype.type(self.scale) * delta
        return WeightStore(trained.layout, buffer)

    def describe(self) -> str:
        return (f"{self.name} x{len(self.adversaries)} "
                f"(scale={self.scale:g})")


class LabelFlipBehavior(ClientBehavior):
    """Data poisoning: trains on mirrored labels ``C - 1 - y``."""

    name = "label_flip"

    def poison_data(self, client_id: int, x: np.ndarray, y: np.ndarray,
                    num_classes: int) -> tuple[np.ndarray, np.ndarray]:
        if not self.is_adversary(client_id):
            return x, y
        return x, (num_classes - 1) - y


class FreeRiderBehavior(ClientBehavior):
    """Contributes nothing: returns the received model plus camouflage
    noise, while still claiming its dataset size as mixing weight."""

    name = "free_rider"
    corrupts_updates = True

    def __init__(self, adversaries: frozenset[int], *,
                 camouflage: float = 1e-3) -> None:
        super().__init__(adversaries)
        if camouflage < 0:
            raise ValueError(
                f"camouflage must be >= 0, got {camouflage}")
        self.camouflage = float(camouflage)

    def skips_training(self, client_id: int) -> bool:
        return self.is_adversary(client_id)

    def corrupt_update(self, client_id: int, trained: WeightStore,
                       start: WeightStore,
                       rng: np.random.Generator) -> WeightStore:
        if not self.is_adversary(client_id):
            return trained
        dtype = start.layout.dtype
        noise = rng.standard_normal(
            start.layout.num_params).astype(dtype, copy=False)
        return WeightStore(
            start.layout,
            start.buffer + dtype.type(self.camouflage) * noise)


#: ``FLConfig.adversary`` / ``--adversary`` choices.  "none" maps to
#: the honest singleton; "byzantine" is the sign-flip variant.
BEHAVIOR_CHOICES = ("none", "byzantine", "byzantine_gaussian",
                    "label_flip", "free_rider")


def make_behavior(name: str, adversaries: frozenset[int],
                  **kwargs) -> ClientBehavior:
    """Build a behavior by ``BEHAVIOR_CHOICES`` name."""
    key = name.lower()
    if key == "none" or not adversaries:
        return HONEST
    if key == "byzantine":
        return ByzantineBehavior(adversaries, variant="sign_flip",
                                 **kwargs)
    if key == "byzantine_gaussian":
        return ByzantineBehavior(adversaries, variant="gaussian",
                                 **kwargs)
    if key == "label_flip":
        return LabelFlipBehavior(adversaries)
    if key == "free_rider":
        return FreeRiderBehavior(adversaries, **kwargs)
    raise ValueError(f"unknown adversary behavior {name!r}; "
                     f"known: {', '.join(BEHAVIOR_CHOICES)}")


def make_behavior_for_config(config) -> ClientBehavior:
    """The run's behavior from ``FLConfig.adversary`` /
    ``adversary_fraction`` (``config.extra['adversary_scale']``
    overrides the byzantine boost factor)."""
    if config.adversary == "none":
        return HONEST
    adversaries = select_adversaries(
        config.num_clients, config.adversary_fraction, config.seed)
    kwargs = {}
    scale = config.extra.get("adversary_scale")
    if scale is not None and config.adversary.startswith("byzantine"):
        kwargs["scale"] = float(scale)
    return make_behavior(config.adversary, adversaries, **kwargs)
