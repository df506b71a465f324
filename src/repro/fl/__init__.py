"""Federated-learning substrate: cross-silo FedAvg simulation.

Implements the paper's §2.1 setting: at each round the server selects N
clients, which train locally and transmit model updates; the server
aggregates with FedAvg and shares the global model back with the
participating clients (and nobody else).  Defenses plug in through the
hook interface in :mod:`repro.privacy.defenses.base`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "aggregation": ("AGGREGATOR_CHOICES StreamingAccumulator clustered_mean"
                    " coordinate_median fedavg trimmed_mean"),
    "behavior": ("BEHAVIOR_CHOICES ClientBehavior make_behavior"
                 " select_adversaries"),
    "client": "ClientUpdate FLClient",
    "config": "FLConfig",
    "costs": "CostMeter CostReport",
    "server": "FLServer",
    "simulation": "FederatedSimulation History RoundRecord",
})

__all__ = [
    "AGGREGATOR_CHOICES",
    "BEHAVIOR_CHOICES",
    "ClientBehavior",
    "ClientUpdate",
    "CostMeter",
    "CostReport",
    "FLClient",
    "FLConfig",
    "FLServer",
    "FederatedSimulation",
    "History",
    "RoundRecord",
    "StreamingAccumulator",
    "clustered_mean",
    "coordinate_median",
    "fedavg",
    "make_behavior",
    "select_adversaries",
    "trimmed_mean",
]
