"""Dataset registry tests — the Table 2 inventory."""

import hashlib

import numpy as np
import pytest

from repro.data.datasets import (
    DATASET_SPECS,
    available_datasets,
    load_dataset,
)

PAPER_TABLE2 = {
    # name: (records, classes, model family)
    "cifar10": (50_000, 10, "ResNet20"),
    "cifar100": (50_000, 100, "ResNet20"),
    "gtsrb": (51_389, 43, "VGG11"),
    "celeba": (202_599, 32, "VGG11"),
    "speech_commands": (64_727, 36, "M18"),
    "purchase100": (97_324, 100, "6-layer FCNN"),
    "texas100": (67_330, 100, "6-layer FCNN"),
}


def test_registry_covers_all_paper_datasets():
    assert set(available_datasets()) == set(PAPER_TABLE2)


@pytest.mark.parametrize("name", sorted(PAPER_TABLE2))
def test_spec_matches_paper_row(name):
    records, classes, model = PAPER_TABLE2[name]
    spec = DATASET_SPECS[name]
    assert spec.paper_records == records
    assert spec.paper_classes == classes
    assert spec.paper_model == model
    # built class counts are kept equal to the paper's
    assert spec.num_classes == classes


@pytest.mark.parametrize("name", sorted(PAPER_TABLE2))
def test_load_produces_expected_shape(name):
    ds = load_dataset(name, 0, n_samples=200)
    spec = DATASET_SPECS[name]
    assert len(ds) == 200
    assert ds.feature_shape == tuple(spec.shape)
    assert ds.num_classes == spec.num_classes
    assert ds.metadata["spec"] is spec


def test_load_is_deterministic():
    a = load_dataset("purchase100", 3, n_samples=100)
    b = load_dataset("purchase100", 3, n_samples=100)
    assert np.array_equal(a.x, b.x)


def test_different_seeds_differ():
    a = load_dataset("purchase100", 1, n_samples=100)
    b = load_dataset("purchase100", 2, n_samples=100)
    assert not np.array_equal(a.x, b.x)


def test_noise_override(rng):
    quiet = load_dataset("cifar10", 0, n_samples=100, noise=0.01)
    loud = load_dataset("cifar10", 0, n_samples=100, noise=3.0)
    assert loud.x.std() > quiet.x.std()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_binary_features_take_one_byte_each(dtype):
    n = 300
    ds = load_dataset("purchase100", 0, n_samples=n, dtype=dtype)
    assert ds.x.nbytes == n * 600


def test_unknown_dataset_rejected():
    with pytest.raises(ValueError):
        load_dataset("imagenet")


def test_accepts_generator_seed():
    ds = load_dataset("celeba", np.random.default_rng(0), n_samples=50)
    assert len(ds) == 50


# sha256 of the feature bytes (float64, float32) and of the label bytes
# for every dataset at seed 0 and its default size.  The datasets are a
# pure function of the seed; any change to the draw order or to a
# rounding step shows up here.  Binary tabular features are stored as
# bool; their pins hash the features cast to the requested dtype, which
# is what a model of that dtype computes on.
PINNED_SHA256 = {
    "celeba": (
        "a1fd94a7590e6fb99fb4f1927b6e7f3d4e7c21ab34f0b9a09a33c7445e9a0060",
        "5efb8270e96029701cd79a2247914edd3e0b11d840c87fcc48adb23dd8a082c3",
        "27c4c4eac8db97ee7ed2a70622b077b13caaccbea3208d6b8e0081ce20a00f3e"),
    "cifar10": (
        "b059e83eea817722acbcbd7978c5a9f6d06ca2e632e0b07ca014108e4f34aff1",
        "ff66872215ad2b0f89a300b6912eff27b86f0663fe208b28e776c8b3015ed729",
        "8ab9b9e1a0bc9bae0cc2ca6d6dc32426e0c811e391ebffbdf6edfc739a093300"),
    "cifar100": (
        "de1375f1633449a9dba1e853457e3713c72c0e30a87eed3893709d5b073a3550",
        "81a1ec478a73bab11409335c8e5808db82155f3982f8b8abaa103dc3dabce436",
        "e7e3e8e294531de7a42c85d7c2c64d2e265e94a5198b4c60665e5145e070ce20"),
    "gtsrb": (
        "d2ca27aec88928c81375576f72d81551cb75913569e05f1a6ebd8e3856cbfec6",
        "3022d7e72d76093d0d359bc07707a67112cd62e486d60c4f7a6f5a33ae1c3c54",
        "7566e4db0333fd5b8344346ff8acc57fa419035c3edc79ddc6163f5f4f102ccd"),
    "purchase100": (
        "abdb4b0d9fc6cb24efaa9b1d786ea92a8553d17a64475fd013054c89a1f5f5a5",
        "727b636750908f22e5e6bec491b52dbf71b0a361b4879fea7b5bb66fe62daff9",
        "9d29ad705f0c60f7d833c738b967c0efab139f6aba1c36234f6c0137a32a06a9"),
    "speech_commands": (
        "d75f36cdd174520f4da84ba1c2644829a07e33481e3e7c98dbccb6e07018b8ca",
        "0e84059afe6d06e623eed36d0537eb6525c2ee495f4e12d1b9a80c72397ed298",
        "b78ca083fb67c6260f773e4df660cf838e425ae2c919420a61f08c598e74fa50"),
    "texas100": (
        "78b5960feaf9440b331fa2f194e08a6f785d7cdc751414b961326d49e525d886",
        "d5604f3b0ad7d659b78cd381b2d81b05a3ead4e0e1651ce0b0f5e3670720038f",
        "9d29ad705f0c60f7d833c738b967c0efab139f6aba1c36234f6c0137a32a06a9"),
}


def test_pins_cover_registry():
    assert set(PINNED_SHA256) == set(available_datasets())


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_dataset_bytes_pinned(name, dtype):
    x64, x32, y = PINNED_SHA256[name]
    ds = load_dataset(name, 0, dtype=dtype)
    binary = name in ("purchase100", "texas100")
    assert ds.x.dtype == np.dtype(bool if binary else dtype)
    assert hashlib.sha256(ds.x.astype(dtype).tobytes()).hexdigest() == \
        (x64 if dtype == "float64" else x32)
    assert hashlib.sha256(ds.y.tobytes()).hexdigest() == y
