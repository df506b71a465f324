"""The DINAR middleware facade.

The paper presents DINAR as *middleware*: something an FL deployment
drops in front of its training loop (Fig. 2). This module packages the
full lifecycle — §4.1 initialization (per-client sensitivity analysis
plus the distributed vote) followed by the defended federated run —
behind one object::

    middleware = DINARMiddleware(model_factory, config)
    simulation = middleware.deploy(split)
    simulation.run()
    print(middleware.initialization.private_layer)
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.core.dinar import (
    DINAR,
    InitializationResult,
    dinar_initialization,
)
from repro.data.partition import MembershipSplit
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.nn.model import Model


class DINARMiddleware:
    """One-call DINAR deployment: initialize, then protect."""

    def __init__(self, model_factory: Callable[[np.random.Generator], Model],
                 config: FLConfig, *,
                 byzantine: dict[int, str] | None = None,
                 warmup_epochs: int = 3,
                 dinar_kwargs: dict | None = None) -> None:
        """
        Parameters
        ----------
        byzantine:
            Optional client-id -> behaviour map for the initialization
            vote (testing the protocol's fault tolerance).
        warmup_epochs:
            Local epochs of the initialization warm-up models.
        dinar_kwargs:
            Extra arguments for the :class:`DINAR` defense
            (obfuscation mode, learning rate, ...).
        """
        self.model_factory = model_factory
        self.config = config
        self.byzantine = byzantine
        self.warmup_epochs = warmup_epochs
        self.dinar_kwargs = dict(dinar_kwargs or {})
        self.initialization: InitializationResult | None = None
        self.defense: DINAR | None = None

    def deploy(self, split: MembershipSplit, *,
               dirichlet_alpha: float = math.inf) -> FederatedSimulation:
        """Run initialization on the clients' shards and build the
        defended simulation (not yet run).

        Each client analyses exactly the shard it then trains on: the
        simulation partitions the members once, and the analysis reads
        each client's dataset from it.
        """
        self.defense = DINAR(**self.dinar_kwargs)
        simulation = FederatedSimulation(
            split, self.model_factory, self.config, self.defense,
            dirichlet_alpha=dirichlet_alpha)
        self.initialization = dinar_initialization(
            self.model_factory,
            [simulation.client_dataset(cid)
             for cid in range(self.config.num_clients)],
            warmup_epochs=self.warmup_epochs,
            lr=self.dinar_kwargs.get("lr") or 0.005,
            batch_size=self.config.batch_size,
            byzantine=self.byzantine,
            seed=self.config.seed)
        self.defense.private_layer = self.initialization.private_layer
        return simulation

    def describe(self) -> str:
        """Human-readable deployment summary."""
        if self.initialization is None:
            return "DINAR middleware (not deployed)"
        consensus = self.initialization.consensus
        return (f"DINAR middleware: private layer "
                f"{self.initialization.private_layer} "
                f"(vote over {len(consensus.per_node_decisions)} clients, "
                f"{consensus.rounds_used} broadcast rounds, honest "
                f"agreement={consensus.honest_agreement})")
