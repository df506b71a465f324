"""Cross-silo scenario: a hospital consortium (Texas100 stand-in).

The paper motivates DINAR with cross-silo deployments — hospitals
collaboratively training a diagnosis model must not let any silo (or
the aggregation server) infer whether a specific patient's record was
used for training.  This example walks the full DINAR lifecycle:

1. each hospital measures which model layer leaks the most membership
   information on its own data (§3 analysis);
2. the hospitals run the Byzantine-tolerant vote to agree on the layer
   to obfuscate — here one hospital is compromised and votes
   erratically (§4.1);
3. federated training runs with DINAR protecting every upload;
4. a server-side attacker (Shokri-style shadow models trained on
   look-alike public data) attacks each hospital's uploaded model.

    python examples/hospital_consortium.py
"""

import numpy as np

from repro import FederatedSimulation, FLConfig, ShadowAttack
from repro.bench.harness import make_model_factory
from repro.core.dinar import DINAR, dinar_initialization
from repro.data import client_shards, load_dataset, split_for_membership
from repro.privacy.attacks.metrics import local_models_auc

NUM_HOSPITALS = 5


def main() -> None:
    rng = np.random.default_rng(7)
    records = load_dataset("texas100", rng, n_samples=4000)
    split = split_for_membership(records, rng)
    factory = make_model_factory("texas100")

    # --- 1 + 2: DINAR initialization with one compromised hospital ---
    print("Phase 1: per-hospital layer-sensitivity analysis + vote")
    # Each hospital analyses the records it will train on: the same
    # shards the federated run below draws from the config's seed.
    config = FLConfig(num_clients=NUM_HOSPITALS, rounds=12,
                      local_epochs=3, lr=0.1, batch_size=64, seed=7,
                      eval_every=4)
    shards = client_shards(split, NUM_HOSPITALS, config.seed)
    init = dinar_initialization(
        factory,
        [records.subset(shard) for shard in shards],
        warmup_epochs=3, lr=0.005, batch_size=64,
        byzantine={4: "equivocate"},  # hospital 4 is compromised
        seed=7)
    for hospital, sensitivity in init.per_client_sensitivity.items():
        flag = " (compromised voter)" if hospital == 4 else ""
        print(f"  hospital {hospital}: proposes layer "
              f"{sensitivity.most_sensitive_layer}{flag}")
    print(f"  consensus: obfuscate layer {init.private_layer} "
          f"(honest agreement: {init.consensus.honest_agreement})")

    # --- 3: federated training under DINAR ---
    print("\nPhase 2: federated training (5 hospitals)")
    simulation = FederatedSimulation(
        split, factory, config,
        DINAR(private_layer=init.private_layer))
    for record in simulation.run().records:
        print(f"  round {record.round_index:2d}: mean hospital model "
              f"accuracy {100 * record.mean_client_accuracy:.1f}%")

    # --- 4: the server attacks each hospital's uploaded model ---
    print("\nPhase 3: server-side shadow-model attack on uploads")
    attack = ShadowAttack(factory, num_shadows=2, epochs=6, seed=7)
    attack.fit(split.source, split.attacker_idx)
    auc = local_models_auc(attack, simulation, max_samples=300)
    print(f"  mean attack AUC over hospital uploads: {100 * auc:.1f}% "
          "(50% = attacker reduced to guessing)")


if __name__ == "__main__":
    main()
