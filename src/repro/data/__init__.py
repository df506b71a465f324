"""Datasets and federated partitioning.

The paper's six public datasets are replaced by seeded synthetic
generators with matched shapes (see DESIGN.md §2 for the substitution
rationale); this package also implements the paper's data protocol:
half of each dataset is the attacker's prior knowledge, the rest splits
80/20 into member (training) and non-member (test) sets, and the member
set is partitioned across FL clients IID or with a Dirichlet(alpha)
distribution (§5.1, §5.3, §5.8).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "datasets": "DATASET_SPECS DatasetSpec available_datasets load_dataset",
    "loader": "iterate_batches",
    "partition": ("MembershipSplit client_shards partition_dirichlet"
                  " partition_iid split_for_membership"),
    "synthetic": "Dataset synthetic_audio synthetic_images synthetic_tabular",
})

__all__ = [
    "DATASET_SPECS",
    "Dataset",
    "DatasetSpec",
    "MembershipSplit",
    "available_datasets",
    "client_shards",
    "iterate_batches",
    "load_dataset",
    "partition_dirichlet",
    "partition_iid",
    "split_for_membership",
    "synthetic_audio",
    "synthetic_images",
    "synthetic_tabular",
]
