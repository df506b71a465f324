"""Layer-leakage analysis: reproduce the paper's §3 motivation study.

Trains an undefended FL model, then measures — per layer — the
Jensen-Shannon divergence between the gradients induced by member
samples and by non-member samples, plus the AUC a white-box attacker
gets from each layer's per-sample gradient norms.  This is the
analysis DINAR's initialization phase runs at each client.

    python examples/layer_leakage_analysis.py [dataset]
"""

import sys

import numpy as np

from repro.bench.harness import run_experiment
from repro.bench.reporting import format_table
from repro.core.sensitivity import layer_divergences
from repro.privacy.attacks.gradient import (
    per_example_layer_gradient_norms,
)
from repro.privacy.attacks.metrics import attack_auc


def main(dataset: str = "purchase100") -> None:
    print(f"training an unprotected FL model on {dataset}...")
    result = run_experiment(dataset, "none", attack="yeom")
    simulation = result.simulation
    model = simulation.global_model()
    split = simulation.split
    members = split.members

    print("measuring per-layer member/non-member divergence...")
    sensitivity = layer_divergences(
        model, members.x, members.y,
        split.nonmembers.x, split.nonmembers.y,
        rng=np.random.default_rng(0), max_samples=200)

    rng = np.random.default_rng(1)
    m_idx = rng.choice(len(members), 120, replace=False)
    n_idx = rng.choice(len(split.nonmembers),
                       min(120, len(split.nonmembers)), replace=False)
    member_norms = per_example_layer_gradient_norms(
        model, members.x[m_idx], members.y[m_idx])
    nonmember_norms = per_example_layer_gradient_norms(
        model, split.nonmembers.x[n_idx], split.nonmembers.y[n_idx])

    rows = []
    for idx, name, divergence in sensitivity.as_rows():
        auc = attack_auc(-member_norms[:, idx], -nonmember_norms[:, idx])
        marker = " <-- most sensitive" \
            if idx == sensitivity.most_sensitive_layer else ""
        rows.append([idx, name, f"{divergence:.4f}",
                     f"{100 * auc:.1f}%{marker}"])
    print()
    print(format_table(
        ["layer", "name", "JS divergence (debiased)",
         "white-box gradient-attack AUC"],
        rows, title=f"Layer-level membership leakage - {dataset}"))
    print()
    print(f"DINAR would obfuscate layer "
          f"{sensitivity.most_sensitive_layer} "
          f"({sensitivity.layer_names[sensitivity.most_sensitive_layer]}).")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "purchase100")
