"""Membership split and FL partitioning tests (§5.1, §5.3, §5.8)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    partition_dirichlet,
    partition_iid,
    split_for_membership,
)
from repro.data.synthetic import synthetic_tabular


class TestMembershipSplit:
    def test_pools_are_disjoint_and_complete(self, tiny_dataset, rng):
        split = split_for_membership(tiny_dataset, rng)
        total = (len(split.members) + len(split.nonmembers)
                 + len(split.attacker_idx))
        assert total == len(tiny_dataset)

    def test_paper_fractions(self, rng):
        ds = synthetic_tabular(rng, 1000, 10, 4)
        split = split_for_membership(ds, rng)
        assert len(split.attacker_idx) == 500   # half for the attacker
        assert len(split.members) == 400    # 80% of the rest
        assert len(split.nonmembers) == 100  # 20% of the rest

    def test_custom_fractions(self, rng):
        ds = synthetic_tabular(rng, 100, 10, 4)
        split = split_for_membership(ds, rng, attacker_fraction=0.2,
                                     train_fraction=0.5)
        assert len(split.attacker_idx) == 20
        assert len(split.members) == 40

    def test_rejects_bad_fractions(self, tiny_dataset, rng):
        with pytest.raises(ValueError):
            split_for_membership(tiny_dataset, rng, attacker_fraction=1.0)
        with pytest.raises(ValueError):
            split_for_membership(tiny_dataset, rng, train_fraction=0.0)

    def test_deterministic_given_rng(self, tiny_dataset):
        a = split_for_membership(tiny_dataset, np.random.default_rng(1))
        b = split_for_membership(tiny_dataset, np.random.default_rng(1))
        assert np.array_equal(a.members.x, b.members.x)

    def test_pools_equal_copies_of_the_permutation_slices(self):
        # The split holds index arrays over the one dataset; each pool
        # it builds must equal, byte for byte and by name, the copy
        # made from the same slices of the same permutation.  The
        # attacker's pool is never built: it is the first slice's rows.
        ds = synthetic_tabular(np.random.default_rng(2), 1000, 10, 4,
                               name="ds")
        split = split_for_membership(ds, np.random.default_rng(5))
        order = np.random.default_rng(5).permutation(len(ds))
        assert np.array_equal(split.attacker_idx, order[:500])
        expected = {
            "members": ds.subset(order[500:900], name="ds/members"),
            "nonmembers": ds.subset(order[900:], name="ds/nonmembers"),
        }
        for pool, want in expected.items():
            got = getattr(split, pool)
            assert got.name == want.name
            assert got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes()
            assert got.num_classes == want.num_classes
        assert split.source is ds

    def test_member_pool_is_built_per_access(self, rng):
        ds = synthetic_tabular(rng, 200, 10, 4)
        split = split_for_membership(ds, rng)
        assert split.members is not split.members
        assert split.nonmembers is split.nonmembers

    def test_split_copies_only_the_nonmember_pool(self):
        ds = synthetic_tabular(np.random.default_rng(0), 4000, 50, 4,
                               binary=False)
        tracemalloc.start()
        try:
            split_for_membership(ds, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the non-member pool is a tenth of the data; the copying
        # split allocated the whole feature matrix again
        assert peak < 0.15 * ds.x.nbytes


class TestIIDPartition:
    def test_covers_all_samples_disjointly(self, rng):
        shards = partition_iid(100, 7, rng)
        joined = np.concatenate(shards)
        assert len(joined) == 100
        assert len(np.unique(joined)) == 100

    def test_near_equal_sizes(self, rng):
        sizes = [len(s) for s in partition_iid(100, 7, rng)]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_more_clients_than_samples(self, rng):
        with pytest.raises(ValueError):
            partition_iid(3, 5, rng)

    def test_rejects_zero_clients(self, rng):
        with pytest.raises(ValueError):
            partition_iid(10, 0, rng)


class TestDirichletPartition:
    def _labels(self, rng, n=600, k=6):
        return rng.integers(0, k, n)

    def test_covers_all_samples(self, rng):
        labels = self._labels(rng)
        shards = partition_dirichlet(labels, 5, 1.0, rng)
        joined = np.concatenate(shards)
        assert len(joined) == len(labels)
        assert len(np.unique(joined)) == len(labels)

    def test_low_alpha_is_more_skewed(self):
        """Lower alpha concentrates classes on fewer clients (§5.8)."""
        labels = np.random.default_rng(0).integers(0, 6, 3000)

        def skew(alpha, seed):
            shards = partition_dirichlet(
                labels, 5, alpha, np.random.default_rng(seed))
            stds = []
            for cls in range(6):
                counts = [np.sum(labels[s] == cls) for s in shards]
                stds.append(np.std(counts))
            return np.mean(stds)

        low = np.mean([skew(0.2, s) for s in range(3)])
        high = np.mean([skew(50.0, s) for s in range(3)])
        assert low > high

    def test_infinite_alpha_degenerates_to_iid(self, rng):
        labels = self._labels(rng)
        shards = partition_dirichlet(labels, 4, math.inf, rng)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_min_samples_respected(self, rng):
        labels = self._labels(rng)
        shards = partition_dirichlet(labels, 5, 0.3, rng, min_samples=10)
        assert min(len(s) for s in shards) >= 10

    def test_rejects_nonpositive_alpha(self, rng):
        with pytest.raises(ValueError):
            partition_dirichlet(self._labels(rng), 3, 0.0, rng)

    def test_impossible_min_samples_raises(self, rng):
        labels = rng.integers(0, 2, 10)
        with pytest.raises(RuntimeError):
            partition_dirichlet(labels, 5, 0.5, rng, min_samples=10)


# ----------------------------------------------------------------------
# Dirichlet partition properties (hypothesis)
# ----------------------------------------------------------------------

class TestDirichletProperties:
    """Partition invariants over the whole (n, k, clients, alpha)
    space, including the degenerate corners the example-based tests
    above skip: single-sample classes, empty classes, and cohorts
    larger than the dataset."""

    @given(n=st.integers(8, 200), k=st.integers(1, 6),
           num_clients=st.integers(1, 8),
           alpha=st.floats(0.05, 50.0),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_every_sample_assigned_exactly_once(self, n, k, num_clients,
                                                alpha, seed):
        labels = np.random.default_rng(seed).integers(0, k, n)
        shards = partition_dirichlet(
            labels, num_clients, alpha, np.random.default_rng(seed + 1),
            min_samples=0)
        assert len(shards) == num_clients
        joined = np.concatenate(shards)
        np.testing.assert_array_equal(np.sort(joined), np.arange(n))
        for shard in shards:
            assert shard.dtype == np.int64
            np.testing.assert_array_equal(shard, np.sort(shard))

    @given(seed=st.integers(0, 2**16), alpha=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_single_sample_class_is_assigned(self, seed, alpha):
        """A class with one sample can't be lost to floor rounding."""
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.zeros(40, dtype=np.int64),
                                 np.array([1], dtype=np.int64)])
        rng.shuffle(labels)
        rare = int(np.flatnonzero(labels == 1)[0])
        shards = partition_dirichlet(labels, 3, alpha,
                                     np.random.default_rng(seed),
                                     min_samples=0)
        assert sum(rare in shard for shard in shards) == 1

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_missing_class_ids_are_tolerated(self, seed):
        """num_classes > ids actually present: empty classes skip."""
        labels = np.random.default_rng(seed).integers(0, 2, 60)
        shards = partition_dirichlet(
            labels, 4, 0.5, np.random.default_rng(seed),
            num_classes=10, min_samples=0)
        assert len(np.concatenate(shards)) == 60

    def test_more_clients_than_samples(self):
        labels = np.arange(3) % 2  # 3 samples, 5 clients
        # alpha=inf delegates to partition_iid, which refuses outright.
        with pytest.raises(ValueError, match="cannot cover"):
            partition_dirichlet(labels, 5, math.inf,
                                np.random.default_rng(0))
        # Finite alpha with the default min_samples=1 is unsatisfiable
        # by pigeonhole: the redraw loop exhausts and says so.
        with pytest.raises(RuntimeError, match="100 attempts"):
            partition_dirichlet(labels, 5, 0.5,
                                np.random.default_rng(0))
        # Relaxing the floor makes it legal: some clients stay empty.
        shards = partition_dirichlet(labels, 5, 0.5,
                                     np.random.default_rng(0),
                                     min_samples=0)
        assert len(shards) == 5
        np.testing.assert_array_equal(
            np.sort(np.concatenate(shards)), np.arange(3))

    @given(seed=st.integers(0, 2**16), n=st.integers(12, 100),
           num_clients=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_infinite_alpha_is_exactly_iid(self, seed, n, num_clients):
        """alpha=inf is a true delegation: identical shards to
        partition_iid under an identically seeded generator."""
        labels = np.random.default_rng(seed).integers(0, 4, n)
        via_dirichlet = partition_dirichlet(
            labels, num_clients, math.inf, np.random.default_rng(seed))
        via_iid = partition_iid(n, num_clients,
                                np.random.default_rng(seed))
        assert len(via_dirichlet) == len(via_iid)
        for a, b in zip(via_dirichlet, via_iid):
            np.testing.assert_array_equal(a, b)
