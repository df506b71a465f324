"""Privacy audit: measure a deployed model's membership leakage.

Uses the library as an auditing tool rather than a simulator: given a
trained model, the data it was trained on, held-out data, and some
population data, run the full attacker suite and report each
attacker's AUC plus the stricter TPR at 1% FPR.

    python examples/membership_audit.py
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.data import load_dataset, split_for_membership
from repro.data.loader import iterate_batches
from repro.models import build_fcnn
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.privacy.attacks import (
    EntropyThresholdAttack,
    LossThresholdAttack,
    ReferenceCalibratedAttack,
    ShadowAttack,
    attack_auc,
    tpr_at_fpr,
)


def train_the_model_under_audit(members, rng):
    """Stand-in for 'a model someone handed us': an overfit classifier."""
    model = build_fcnn(600, 100, np.random.default_rng(1),
                       hidden=(128, 64))
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model, 0.15)
    for _ in range(25):
        for bx, by in iterate_batches(members.x, members.y, 64, rng):
            model.loss_and_grad(bx, by, loss)
            optimizer.step()
    return model


def main() -> None:
    rng = np.random.default_rng(11)
    population = load_dataset("purchase100", rng, n_samples=4000)
    split = split_for_membership(population, rng)

    print("training the model under audit...")
    members = split.members
    model = train_the_model_under_audit(members, rng)

    def factory(model_rng):
        return build_fcnn(600, 100, model_rng, hidden=(128, 64))

    attackers = {
        "loss threshold (Yeom)": LossThresholdAttack(),
        "modified entropy (Song & Mittal)": EntropyThresholdAttack(),
        "shadow models (Shokri)": ShadowAttack(
            factory, num_shadows=2, epochs=10, lr=0.15,
            seed=3).fit(split.source, split.attacker_idx),
        "calibrated (Watson)": ReferenceCalibratedAttack(
            factory, num_references=3, epochs=10, lr=0.15,
            seed=3).fit(split.source, split.attacker_idx),
    }

    idx = rng.choice(len(members), 400, replace=False)
    member_x, member_y = members.x[idx], members.y[idx]
    nonmember_x, nonmember_y = split.nonmembers.x, split.nonmembers.y

    rows = []
    worst_auc = 0.0
    for name, attack in attackers.items():
        print(f"running {name}...")
        m_scores = attack.score(model, member_x, member_y)
        n_scores = attack.score(model, nonmember_x, nonmember_y)
        auc = attack_auc(m_scores, n_scores)
        low_fpr_tpr = tpr_at_fpr(m_scores, n_scores, max_fpr=0.01)
        worst_auc = max(worst_auc, auc)
        rows.append([name, f"{100 * auc:.1f}%",
                     f"{100 * low_fpr_tpr:.1f}%"])

    print()
    print(format_table(
        ["attacker", "attack AUC", "TPR @ 1% FPR"],
        rows, title="Membership-leakage audit"))
    print()
    verdict = "LEAKING" if worst_auc > 0.6 else \
        "acceptable (near the 50% optimum)"
    print(f"audit verdict: worst-case attacker AUC "
          f"{100 * worst_auc:.1f}% -> {verdict}")
    print("(defend the federated version of this pipeline with "
          "repro.core.DINAR)")


if __name__ == "__main__":
    main()
