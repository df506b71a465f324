"""Property-based tests on FL substrate invariants."""

import multiprocessing
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import partition_dirichlet, partition_iid
from repro.data.synthetic import synthetic_tabular
from repro.fl.network import LinkSpec, dense_nbytes, sparse_nbytes
from repro.fl.shm import shm_available
from repro.nn.store import WeightStore
from repro.privacy.defenses.accounting import gaussian_sigma
from tests.fl.trajectory_recipes import simulation_trajectory

_PINS = (pathlib.Path(__file__).resolve().parent.parent
         / "fixtures" / "trajectory_pins.npz")


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.integers(1, 20), st.integers(0, 1000))
def test_iid_partition_is_exact_cover(n_samples, num_clients, seed):
    if n_samples < num_clients:
        return
    shards = partition_iid(n_samples, num_clients,
                           np.random.default_rng(seed))
    joined = np.concatenate(shards)
    assert len(joined) == n_samples
    assert len(np.unique(joined)) == n_samples
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.floats(min_value=0.1, max_value=100,
                                    allow_nan=False),
       st.integers(0, 100))
def test_dirichlet_partition_is_exact_cover(num_clients, alpha, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, 300)
    shards = partition_dirichlet(labels, num_clients, alpha, rng)
    joined = np.concatenate([s for s in shards if len(s)])
    assert len(joined) == len(labels)
    assert len(np.unique(joined)) == len(labels)


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 500), st.integers(2, 20), st.integers(0, 50),
       st.floats(min_value=0.01, max_value=0.49, allow_nan=False))
def test_synthetic_tabular_labels_cover_classes(n, k, seed, noise):
    if n < k:
        return
    ds = synthetic_tabular(np.random.default_rng(seed), n, 10, k,
                           noise=noise)
    assert ds.class_counts().min() >= n // k - 1
    assert set(np.unique(ds.x)) <= {0.0, 1.0}


@pytest.mark.skipif(
    not shm_available()
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="shm executor needs shared memory + fork")
@settings(max_examples=8, deadline=None)
@given(st.sampled_from([1, 2, 4]),
       st.sampled_from(["none", "dinar", "sa"]),
       st.sampled_from([1, 2, 8]))
def test_shm_parallel_matches_golden_pin(workers, defense,
                                         max_materialized):
    """Every (worker count, defense, model-pool bound) lands on the
    recorded golden trajectory.

    The pin was recorded on the serial dict-plane path, so matching it
    proves shm-parallel == serial bitwise without re-running serial —
    the transport, the fan-out width, and the virtual-client pool size
    are all invisible to the trajectory.
    """
    vector = simulation_trajectory(defense, workers=workers,
                                   max_materialized=max_materialized)
    with np.load(_PINS) as pins:
        expected = pins[f"defense/{defense}"]
    assert vector.shape == expected.shape
    if not np.array_equal(vector, expected):
        np.testing.assert_array_almost_equal_nulp(vector, expected,
                                                  nulp=2)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-4, max_value=100, allow_nan=False),
       st.floats(min_value=1e-4, max_value=100, allow_nan=False))
def test_gaussian_sigma_monotone_in_epsilon(eps_a, eps_b):
    lo, hi = sorted((eps_a, eps_b))
    if lo == hi:
        return
    assert gaussian_sigma(lo, 1e-5) >= gaussian_sigma(hi, 1e-5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000_000), st.integers(0, 10_000_000))
def test_link_transfer_time_additive_in_bytes(a, b):
    link = LinkSpec(latency_seconds=0.0,
                    bandwidth_bytes_per_second=1e6)
    combined = link.transfer_seconds(a + b)
    split = link.transfer_seconds(a) + link.transfer_seconds(b)
    assert abs(combined - split) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 100))
def test_sparse_encoding_never_beats_zero_and_bounds_dense(rows, cols,
                                                           seed):
    rng = np.random.default_rng(seed)
    weights = WeightStore.from_layers(
        [{"W": rng.standard_normal((rows, cols))}])
    sparse = sparse_nbytes(weights)
    dense = dense_nbytes(weights)
    assert 0 <= sparse <= (8 + 4) * rows * cols
    # fully dense array: sparse encoding costs more per coordinate
    if np.count_nonzero(weights.buffer) == rows * cols:
        assert sparse >= dense * 1.0  # 12 bytes vs 8 per coordinate
