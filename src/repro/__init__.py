"""DINAR reproduction: Personalized Privacy-Preserving Federated Learning.

A full from-scratch reproduction of Boscher et al., MIDDLEWARE '24:
a NumPy neural-network substrate (:mod:`repro.nn`), the paper's model
families (:mod:`repro.models`), synthetic stand-ins for its datasets
(:mod:`repro.data`), a cross-silo FedAvg simulator (:mod:`repro.fl`),
membership-inference attacks and the five baseline defenses
(:mod:`repro.privacy`), and DINAR itself (:mod:`repro.core`).

Quickstart::

    from repro import quick_experiment

    result = quick_experiment("purchase100", defense="dinar")
    print(result.local_auc, result.client_accuracy)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "analysis.leakage_over_time": "leakage_over_training",
    "bench.harness": "ExperimentResult quick_experiment run_experiment",
    "core.dinar": "DINAR dinar_initialization",
    "core.middleware": "DINARMiddleware",
    "data.datasets": "load_dataset",
    "data.partition": "split_for_membership",
    "fl.config": "FLConfig",
    "fl.simulation": "FederatedSimulation",
    "privacy.attacks.shadow": "ShadowAttack",
    "privacy.attacks.threshold": "LossThresholdAttack",
    "privacy.defenses": "make_defense",
})

__all__ = [
    "DINAR",
    "DINARMiddleware",
    "ExperimentResult",
    "FLConfig",
    "FederatedSimulation",
    "LossThresholdAttack",
    "ShadowAttack",
    "__version__",
    "dinar_initialization",
    "leakage_over_training",
    "load_dataset",
    "make_defense",
    "quick_experiment",
    "run_experiment",
    "split_for_membership",
]
