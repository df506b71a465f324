"""Experiment harness.

``run_experiment`` reproduces one cell of the paper's evaluation
matrix: build the dataset and its paper-matched model family, run the
federated simulation under a defense, then attack both the global
model (client-side attacker) and every client's transmitted update
(server-side attacker), and report the Appendix-A metrics plus costs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.data.datasets import DATASET_SPECS, load_dataset
from repro.data.partition import MembershipSplit, split_for_membership
from repro.fl.config import FLConfig
from repro.fl.costs import CostReport
from repro.fl.simulation import FederatedSimulation
from repro.models.registry import build_model
from repro.nn.model import Model
from repro.privacy.attacks.metrics import global_model_auc, local_models_auc
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.make import make_defense_for_config


@dataclass
class ExperimentResult:
    """Metrics of one (dataset, defense, attack) evaluation cell."""

    dataset: str
    defense: str
    attack: str
    global_auc: float        # client-side attacker vs. global model
    local_auc: float         # server-side attacker vs. client updates
    global_accuracy: float   # global model on the test set
    client_accuracy: float   # mean personalized-model accuracy
    costs: CostReport
    simulation: FederatedSimulation

    def privacy_utility(self) -> tuple[float, float]:
        """(x, y) of one Fig. 7 point: accuracy% vs local attack AUC%."""
        return 100.0 * self.client_accuracy, 100.0 * self.local_auc

    def to_dict(self) -> dict:
        """JSON-ready summary (drops the simulation) — what
        ``repro run --out`` writes."""
        costs = self.costs
        return {
            "dataset": self.dataset,
            "defense": self.defense,
            "attack": self.attack,
            "global_auc": self.global_auc,
            "local_auc": self.local_auc,
            "global_accuracy": self.global_accuracy,
            "client_accuracy": self.client_accuracy,
            "costs": {
                "train_seconds_per_round": costs.train_seconds_per_round,
                "aggregate_seconds_per_round":
                    costs.aggregate_seconds_per_round,
                "defense_state_bytes": costs.defense_state_bytes,
            },
        }


#: Tuned DINAR Adagrad learning rates per dataset.  Adaptive methods'
#: effective early step is ~lr*sign(g), so the right rate tracks each
#: model family's weight scale; these were selected by sweeps (see
#: EXPERIMENTS.md, calibration section).
DINAR_LR = {
    "purchase100": 0.005,
    "texas100": 0.005,
    "cifar10": 0.01,
    "cifar100": 0.005,
    "gtsrb": 0.01,
    "celeba": 0.01,
    "speech_commands": 0.02,
}


#: Members and non-members each attack-scored per model (Appendix A).
MAX_ATTACK_SAMPLES = 400


def make_model_factory(dataset_name: str, *,
                       dtype: np.dtype | str = np.float64
                       ) -> Callable[[np.random.Generator], Model]:
    """Factory building the paper-matched model family for a dataset."""
    spec = DATASET_SPECS[dataset_name]

    def factory(rng: np.random.Generator) -> Model:
        return build_model(spec.model_name, spec.shape, spec.num_classes,
                           rng, dtype=dtype)

    return factory


def default_config(dataset_name: str, *, seed: int = 0) -> FLConfig:
    """CPU-scaled per-dataset FL configuration.

    Mirrors the paper's §5.3 per-dataset choices in spirit: Purchase100
    gets more clients (10 vs 5) and more local epochs.
    """
    if dataset_name in ("purchase100", "texas100"):
        # Paper: 10 clients, 300 rounds, 10 local epochs; CPU scale keeps
        # 10 clients and trades rounds for the smaller synthetic task.
        return FLConfig(num_clients=10, rounds=20, local_epochs=3,
                        lr=0.1, batch_size=64, seed=seed,
                        eval_every=20)
    return FLConfig(num_clients=5, rounds=10, local_epochs=3,
                    lr=0.1, batch_size=64, seed=seed, eval_every=10)


def build_attack(name: str, dataset_name: str, split: MembershipSplit, *,
                 seed: int = 0, num_shadows: int = 2,
                 shadow_epochs: int = 6,
                 dtype: np.dtype | str = np.float64):
    """Build and (if needed) fit an attack by name.

    ``dtype`` reaches the shadow/reference model factories so attack
    training runs at the same precision as the target.
    """
    if name == "yeom":
        from repro.privacy.attacks.threshold import LossThresholdAttack
        return LossThresholdAttack()
    if name == "entropy":
        from repro.privacy.attacks.threshold import EntropyThresholdAttack
        return EntropyThresholdAttack()
    if name == "confidence":
        from repro.privacy.attacks.threshold import (
            ConfidenceThresholdAttack,
        )
        return ConfidenceThresholdAttack()
    if name == "shadow":
        from repro.privacy.attacks.shadow import ShadowAttack
        attack = ShadowAttack(
            make_model_factory(dataset_name, dtype=dtype),
            num_shadows=num_shadows, epochs=shadow_epochs, seed=seed)
        return attack.fit(split.source, split.attacker_idx)
    if name == "calibrated":
        from repro.privacy.attacks.calibrated import (
            ReferenceCalibratedAttack,
        )
        attack = ReferenceCalibratedAttack(
            make_model_factory(dataset_name, dtype=dtype),
            num_references=num_shadows, epochs=shadow_epochs, seed=seed)
        return attack.fit(split.source, split.attacker_idx)
    raise ValueError(f"unknown attack {name!r}; known: yeom, entropy, "
                     "confidence, shadow, calibrated")


def run_experiment(dataset_name: str, defense: Defense | str = "none", *,
                   config: FLConfig | None = None,
                   attack: str = "yeom",
                   n_samples: int | None = None,
                   dirichlet_alpha: float = math.inf,
                   seed: int = 0,
                   defense_kwargs: dict | None = None) -> ExperimentResult:
    """Run one full evaluation cell.

    Parameters
    ----------
    defense:
        A constructed :class:`Defense` or a paper name (``none``,
        ``ldp``, ``cdp``, ``wdp``, ``gc``, ``sa``, ``dinar``); names are
        parameterized per §5.2 with budgets split across the configured
        rounds.
    attack:
        ``"yeom"`` (loss threshold — cheap, used in sweeps) or
        ``"shadow"`` (Shokri shadow models — the paper's attacker).
    """
    config = config or default_config(dataset_name, seed=seed)
    dataset = load_dataset(dataset_name, seed, n_samples=n_samples,
                           dtype=config.dtype)
    split = split_for_membership(
        dataset, np.random.default_rng((seed, 17)))

    if isinstance(defense, str):
        defense_kwargs = dict(defense_kwargs or {})
        if defense.lower() == "dinar" and dataset_name in DINAR_LR:
            defense_kwargs.setdefault("lr", DINAR_LR[dataset_name])
        defense = make_defense_for_config(defense, config,
                                          **defense_kwargs)

    simulation = FederatedSimulation(
        split, make_model_factory(dataset_name, dtype=config.dtype),
        config, defense, dirichlet_alpha=dirichlet_alpha)
    simulation.run()

    attack_obj = build_attack(attack, dataset_name, split, seed=seed,
                              dtype=config.dtype)
    eval_rng = np.random.default_rng((seed, 23))
    result = ExperimentResult(
        dataset=dataset_name,
        defense=defense.name,
        attack=attack,
        global_auc=global_model_auc(
            attack_obj, simulation, max_samples=MAX_ATTACK_SAMPLES,
            rng=eval_rng),
        local_auc=local_models_auc(
            attack_obj, simulation, max_samples=MAX_ATTACK_SAMPLES,
            rng=eval_rng),
        global_accuracy=simulation.history.final_global_accuracy,
        client_accuracy=simulation.history.final_client_accuracy,
        costs=simulation.cost_meter.report,
        simulation=simulation,
    )
    return result


def quick_experiment(dataset_name: str, defense: Defense | str = "none",
                     **kwargs) -> ExperimentResult:
    """Small-scale ``run_experiment`` for demos and smoke tests."""
    config = kwargs.pop("config", None) or FLConfig(
        num_clients=3, rounds=10, local_epochs=3, lr=0.1,
        batch_size=64, seed=kwargs.get("seed", 0), eval_every=10)
    kwargs.setdefault("n_samples", 2400)
    return run_experiment(dataset_name, defense, config=config, **kwargs)
