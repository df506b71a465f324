"""Layer-wise benchmark: LaDP allocation + obfuscation-aware
distances.  Writes ``BENCH_segments.json`` at the repo root.

Part A — layer-wise adaptive DP under label skew (Dirichlet
alpha=0.5), at one matched total epsilon: warm up an unprotected run,
measure per-layer Jensen-Shannon divergences
(:func:`repro.core.sensitivity.layer_divergences`), then compare
LaDP with sensitivity-weighted epsilon shares against uniform shares
over several seeds.  Gated claim: the sensitivity-weighted allocation
is on the better side of the privacy-utility frontier — strictly
higher mean accuracy at equal-or-lower mean attack AUC.

Part B — the DINAR-looks-byzantine interaction, resolved: under
DINAR's obfuscation every whole-vector distance is dominated by the
obfuscated layer's noise, so norm clustering goes blind
(``BENCH_robustness.json`` measures that).  Gated claim: masking the
protected segment out of the clustering distance
(``distance_mask='obfuscated'``) catches at least as many true
byzantine client-rounds under DINAR as whole-vector clustering
catches with no defense at all — the mask fully de-camouflages.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core.sensitivity import layer_divergences
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn
from repro.privacy.attacks.metrics import global_model_auc
from repro.privacy.attacks.threshold import LossThresholdAttack
from repro.privacy.defenses.ladp import LayerwiseDP
from repro.privacy.defenses.make import make_defense_for_config

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_segments.json"

NUM_CLIENTS = 8
ROUNDS = 6
LOCAL_EPOCHS = 2
NUM_SAMPLES = 2000
INPUT_DIM = 24
NUM_CLASSES = 5
HIDDEN = (32,)
DIRICHLET_ALPHA = 0.5

# One matched total budget for both allocations; shares are the only
# difference between the two LaDP arms.
EPSILON = 12.0
DELTA = 1e-5
CLIP_NORM = 3.0
SHARE_FLOOR = 0.0
SEEDS = (0, 1, 2, 3, 4)


def _factory(rng: np.random.Generator):
    return build_fcnn(INPUT_DIM, NUM_CLASSES, rng, hidden=HIDDEN)


def _simulate(defense, seed: int, **cfg_kwargs):
    rng = np.random.default_rng(0)
    dataset = synthetic_tabular(rng, NUM_SAMPLES, INPUT_DIM,
                                NUM_CLASSES, noise=0.25,
                                name="bench-segments")
    split = split_for_membership(dataset, rng)
    cfg_kwargs.setdefault("eval_every", ROUNDS)
    config = FLConfig(num_clients=NUM_CLIENTS, rounds=ROUNDS,
                      local_epochs=LOCAL_EPOCHS, lr=0.05,
                      batch_size=32, seed=seed, **cfg_kwargs)
    if isinstance(defense, str):
        defense = make_defense_for_config(defense, config)
    sim = FederatedSimulation(split, _factory, config, defense,
                              dirichlet_alpha=DIRICHLET_ALPHA)
    sim.run()
    return sim


def _attack_auc(sim, seed: int) -> float:
    return global_model_auc(
        LossThresholdAttack(), sim, max_samples=400,
        rng=np.random.default_rng((seed, 23)))


def _ladp_arm(divergences) -> dict:
    accs, aucs = [], []
    for seed in SEEDS:
        defense = LayerwiseDP(epsilon=EPSILON, delta=DELTA,
                              clip_norm=CLIP_NORM, rounds=ROUNDS,
                              divergences=divergences,
                              share_floor=SHARE_FLOOR)
        sim = _simulate(defense, seed)
        accs.append(sim.history.final_global_accuracy)
        aucs.append(_attack_auc(sim, seed))
    return {
        "accuracy_per_seed": [round(a, 4) for a in accs],
        "auc_per_seed": [round(u, 4) for u in aucs],
        "mean_accuracy": round(float(np.mean(accs)), 4),
        "mean_auc": round(float(np.mean(aucs)), 4),
    }


def _byzantine_cell(defense_name: str, distance_mask: str) -> dict:
    sim = _simulate(defense_name, 0, aggregator="clustered",
                    distance_mask=distance_mask,
                    adversary="byzantine", adversary_fraction=0.25,
                    eval_every=1)
    adversaries = set(sim.behavior.adversaries)
    true_filtered = sum(
        len(adversaries & set(record.filtered))
        for record in sim.history.records)
    return {
        "defense": defense_name,
        "distance_mask": distance_mask,
        "adversaries": sorted(adversaries),
        "true_filtered_client_rounds": true_filtered,
        "filtered_client_rounds":
            sim.cost_meter.report.clients_filtered,
        "client_accuracy":
            round(sim.history.final_client_accuracy, 4),
    }


@pytest.mark.bench
def test_segment_plane():
    # -- Part A: sensitivity-weighted vs uniform epsilon shares -------
    warm = _simulate(None, 0)
    sens = layer_divergences(
        warm.global_model(),
        warm.split.members.x, warm.split.members.y,
        warm.split.nonmembers.x, warm.split.nonmembers.y,
        rng=np.random.default_rng(0))
    divergences = sens.divergences
    uniform = _ladp_arm(None)
    weighted = _ladp_arm(divergences)

    # -- Part B: masked distances vs the DINAR camouflage -------------
    masked_dinar = _byzantine_cell("dinar", "obfuscated")
    plain_baseline = _byzantine_cell("none", "none")
    blind_dinar = _byzantine_cell("dinar", "none")

    report = {
        "benchmark": "segment plane: LaDP allocation + "
                     "obfuscation-aware robust distances",
        "clients": NUM_CLIENTS,
        "rounds": ROUNDS,
        "dirichlet_alpha": DIRICHLET_ALPHA,
        "ladp": {
            "epsilon": EPSILON,
            "delta": DELTA,
            "clip_norm": CLIP_NORM,
            "share_floor": SHARE_FLOOR,
            "seeds": list(SEEDS),
            "warmup_accuracy":
                round(warm.history.final_global_accuracy, 4),
            "layer_divergences":
                [round(float(d), 6) for d in divergences],
            "uniform": uniform,
            "sensitivity_weighted": weighted,
        },
        "distance_mask": {
            "masked_dinar": masked_dinar,
            "plain_baseline": plain_baseline,
            "blind_dinar": blind_dinar,
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(f"LaDP uniform     acc={uniform['mean_accuracy']:.4f} "
          f"auc={uniform['mean_auc']:.4f}")
    print(f"LaDP sensitivity acc={weighted['mean_accuracy']:.4f} "
          f"auc={weighted['mean_auc']:.4f}")
    print(f"true byzantine client-rounds filtered: "
          f"dinar+mask={masked_dinar['true_filtered_client_rounds']} "
          f"plain={plain_baseline['true_filtered_client_rounds']} "
          f"dinar-blind={blind_dinar['true_filtered_client_rounds']}")

    # Gate A: at matched total epsilon under alpha=0.5 label skew, the
    # sensitivity-weighted allocation beats uniform shares on mean
    # accuracy without paying for it in attack AUC.
    assert weighted["mean_accuracy"] > uniform["mean_accuracy"], \
        f"sensitivity-weighted LaDP should beat uniform shares on " \
        f"accuracy at matched epsilon: " \
        f"{weighted['mean_accuracy']} vs {uniform['mean_accuracy']}"
    assert weighted["mean_auc"] <= uniform["mean_auc"] + 0.01, \
        f"sensitivity-weighted LaDP should hold equal-or-lower " \
        f"attack AUC: {weighted['mean_auc']} vs {uniform['mean_auc']}"

    # Gate B: the segment-masked distance catches at least as many
    # true byzantine client-rounds under DINAR as the whole-vector
    # distance catches with no obfuscation in the way.
    assert masked_dinar["true_filtered_client_rounds"] >= \
        plain_baseline["true_filtered_client_rounds"], \
        f"masked clustering under DINAR " \
        f"({masked_dinar['true_filtered_client_rounds']}) should " \
        f"match the unobfuscated baseline " \
        f"({plain_baseline['true_filtered_client_rounds']})"
    # ...and the baseline itself must be non-trivial, or the gate
    # proves nothing.
    assert plain_baseline["true_filtered_client_rounds"] > 0, \
        "plain clustering should catch byzantine clients"


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q", "-m", "bench"])
