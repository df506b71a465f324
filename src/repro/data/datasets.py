"""Dataset registry mirroring the paper's Table 2.

Each entry records both the paper's dataset shape and the CPU-scaled
synthetic shape built here, plus the model family the paper pairs with
it.  ``load_dataset(name)`` produces a seeded synthetic dataset ready
for :func:`repro.data.partition.split_for_membership`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import (
    Dataset,
    synthetic_audio,
    synthetic_images,
    synthetic_tabular,
)


@dataclass(frozen=True)
class DatasetSpec:
    """Inventory row: paper shape vs. built shape (Table 2)."""

    name: str
    paper_records: int
    paper_features: int
    paper_classes: int
    paper_model: str
    data_type: str          # "tabular" | "image" | "audio"
    model_name: str         # key into repro.models registry
    default_samples: int    # CPU-scaled record count
    shape: tuple            # built per-sample feature shape
    num_classes: int        # built class count (kept equal to paper)
    noise: float            # generator noise level


DATASET_SPECS: dict[str, DatasetSpec] = {
    "purchase100": DatasetSpec(
        name="purchase100", paper_records=97_324, paper_features=600,
        paper_classes=100, paper_model="6-layer FCNN", data_type="tabular",
        model_name="fcnn", default_samples=6000, shape=(600,),
        num_classes=100, noise=0.30),
    "texas100": DatasetSpec(
        name="texas100", paper_records=67_330, paper_features=6_170,
        paper_classes=100, paper_model="6-layer FCNN", data_type="tabular",
        model_name="fcnn", default_samples=6000, shape=(1024,),
        num_classes=100, noise=0.32),
    "cifar10": DatasetSpec(
        name="cifar10", paper_records=50_000, paper_features=3_072,
        paper_classes=10, paper_model="ResNet20", data_type="image",
        model_name="resnet", default_samples=800, shape=(3, 8, 8),
        num_classes=10, noise=2.6),
    "cifar100": DatasetSpec(
        name="cifar100", paper_records=50_000, paper_features=3_072,
        paper_classes=100, paper_model="ResNet20", data_type="image",
        model_name="resnet", default_samples=2400, shape=(3, 8, 8),
        num_classes=100, noise=1.0),
    "gtsrb": DatasetSpec(
        name="gtsrb", paper_records=51_389, paper_features=6_912,
        paper_classes=43, paper_model="VGG11", data_type="image",
        model_name="vgg", default_samples=3200, shape=(3, 8, 8),
        num_classes=43, noise=0.7),
    "celeba": DatasetSpec(
        name="celeba", paper_records=202_599, paper_features=4_096,
        paper_classes=32, paper_model="VGG11", data_type="image",
        model_name="vgg", default_samples=1600, shape=(3, 8, 8),
        num_classes=32, noise=1.5),
    "speech_commands": DatasetSpec(
        name="speech_commands", paper_records=64_727, paper_features=16_000,
        paper_classes=36, paper_model="M18", data_type="audio",
        model_name="audio", default_samples=1600, shape=(1, 256),
        num_classes=36, noise=0.4),
}


def available_datasets() -> list[str]:
    """Dataset names accepted by :func:`load_dataset`."""
    return sorted(DATASET_SPECS)


def load_dataset(name: str, rng: np.random.Generator | int | None = None, *,
                 n_samples: int | None = None,
                 noise: float | None = None,
                 dtype: np.dtype | str = np.float64) -> Dataset:
    """Build the synthetic stand-in for a paper dataset.

    Parameters
    ----------
    rng:
        Generator, seed, or None (seed 0) — the dataset is a pure
        function of the seed.
    n_samples:
        Override the CPU-scaled record count.
    noise:
        Override the generator noise (higher noise widens the
        generalization gap a model must close by memorizing).
    dtype:
        Precision of continuous features (images, audio): the same
        seeded data cast to float32 or kept at the float64 default.
        Binary tabular features (purchase100, texas100) are stored as
        ``bool`` at any ``dtype``; models cast them per batch at
        ``Model.forward``.
    """
    try:
        spec = DATASET_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; known: {available_datasets()}"
        ) from None
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    n = n_samples or spec.default_samples
    level = spec.noise if noise is None else noise
    if spec.data_type == "tabular":
        ds = synthetic_tabular(rng, n, spec.shape[0], spec.num_classes,
                               noise=level, dtype=dtype, name=name)
    elif spec.data_type == "image":
        ds = synthetic_images(rng, n, spec.shape, spec.num_classes,
                              noise=level, dtype=dtype, name=name)
    elif spec.data_type == "audio":
        ds = synthetic_audio(rng, n, spec.shape[1], spec.num_classes,
                             noise=level, dtype=dtype, name=name)
    else:  # pragma: no cover - registry is static
        raise ValueError(f"bad data_type {spec.data_type!r}")
    ds.metadata["spec"] = spec
    return ds
