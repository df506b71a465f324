"""Robustness plane tests: adversarial behaviors x robust aggregators.

Three invariant families pin the plane down:

* **Aggregator properties** (hypothesis) — robust rules depend only on
  the update *multiset* (permutation invariance), and trimmed mean
  stays inside the honest coordinate envelope whenever the trim is at
  least the adversary count.
* **Determinism** — a run is a pure function of the config under every
  behavior mix: serial and parallel execution produce bitwise
  identical weights, updates, and adversary/filter records.
* **Plumbing** — config validation, the short-cohort error path,
  clustering fallbacks, the SA x dense-aggregator rejection, and the
  behaviors' own corruption semantics.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.aggregation import (
    CLUSTER_MIN_COHORT,
    REDUCE_CHUNK,
    _cluster_distances,
    clustered_mean,
    coordinate_median,
    fedavg,
    trimmed_mean,
)
from repro.fl.behavior import (
    HONEST,
    ByzantineBehavior,
    FreeRiderBehavior,
    LabelFlipBehavior,
    behavior_rng,
    make_behavior,
    select_adversaries,
)
from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.fl.virtual import PersonalWeightsRegistry
from repro.nn.store import WeightStore
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.secure_aggregation import SecureAggregation
from tests.conftest import flat_layout

HAS_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()


def _rows(matrix: np.ndarray) -> list[WeightStore]:
    """Wrap a (clients, params) matrix as one store per row."""
    layout = flat_layout(matrix.shape[1])
    return [WeightStore(layout, row.copy()) for row in matrix]


# ----------------------------------------------------------------------
# aggregator properties
# ----------------------------------------------------------------------

class TestPermutationInvariance:
    """Robust rules see a multiset of updates, not a sequence."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000), st.integers(3, 12), st.integers(1, 40))
    def test_trimmed_mean_exact(self, seed, n, p):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, p))
        perm = rng.permutation(n)
        trim = (n - 1) // 2
        a = trimmed_mean(_rows(matrix), trim=trim)
        b = trimmed_mean(_rows(matrix[perm]), trim=trim)
        assert np.array_equal(a.buffer, b.buffer)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000), st.integers(1, 12), st.integers(1, 40))
    def test_coordinate_median_exact(self, seed, n, p):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, p))
        perm = rng.permutation(n)
        a = coordinate_median(_rows(matrix))
        b = coordinate_median(_rows(matrix[perm]))
        assert np.array_equal(a.buffer, b.buffer)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000), st.integers(1, 12), st.integers(1, 40))
    def test_clustered_keep_set_equivariant(self, seed, n, p):
        """The keep/filter decision depends only on the distance
        multiset; the mean over kept rows matches to summation-order
        tolerance (einsum folds rows in arrival order)."""
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, p))
        # Plant one far outlier so both branches get exercised.
        matrix[0] += 100.0
        perm = rng.permutation(n)
        diag_a: dict = {}
        diag_b: dict = {}
        a = clustered_mean(_rows(matrix), diagnostics=diag_a)
        b = clustered_mean(_rows(matrix[perm]), diagnostics=diag_b)
        assert {int(perm[i]) for i in diag_b["filtered"]} == \
            set(diag_a["filtered"])
        np.testing.assert_allclose(a.buffer, b.buffer,
                                   rtol=1e-12, atol=1e-12)


class TestTrimmedMeanBound:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000), st.integers(3, 10), st.integers(1, 30),
           st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    def test_stays_in_honest_envelope(self, seed, honest_n, p, boost):
        """With trim >= adversary count, every output coordinate lies
        within the honest coordinate min/max — out-of-range adversary
        values are by construction in the trimmed order statistics."""
        rng = np.random.default_rng(seed)
        honest = rng.standard_normal((honest_n, p))
        adversaries = rng.standard_normal((2, p)) * boost
        matrix = np.vstack([adversaries[:1], honest, adversaries[1:]])
        n = len(matrix)
        trim = 2
        if 2 * trim >= n:
            return
        out = trimmed_mean(_rows(matrix), trim=trim).buffer
        assert np.all(out >= honest.min(axis=0) - 1e-12)
        assert np.all(out <= honest.max(axis=0) + 1e-12)


class TestClusteredFallbacks:
    def test_small_cohort_keeps_everyone(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((CLUSTER_MIN_COHORT - 1, 6))
        matrix[0] += 1e6  # would be filtered in a big-enough cohort
        diag: dict = {}
        out = clustered_mean(_rows(matrix), diagnostics=diag)
        assert diag["filtered"] == []
        assert diag["kept"] == list(range(len(matrix)))
        reference = fedavg(_rows(matrix), [1] * len(matrix))
        np.testing.assert_allclose(out.buffer,
                                   reference.buffer)

    def test_homogeneous_cohort_never_filtered(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((8, 10)) * 0.01 + 1.0
        diag: dict = {}
        clustered_mean(_rows(matrix), diagnostics=diag)
        assert diag["filtered"] == []

    def test_clear_outliers_filtered(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((8, 10))
        matrix[2] += 500.0
        matrix[5] -= 500.0
        diag: dict = {}
        clustered_mean(_rows(matrix), diagnostics=diag)
        assert diag["filtered"] == [2, 5]

    def test_rejects_sample_count_mismatch(self):
        matrix = np.zeros((4, 3))
        with pytest.raises(ValueError, match="sample counts"):
            clustered_mean(_rows(matrix), [1, 2])


def test_clustered_mean_temporaries_are_column_chunked():
    """The median center and the kept-row gather work one column chunk
    at a time: no temporary is as large as the update matrix."""
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((20, 300_000))
    matrix[4] += 500.0  # one filtered row, so the kept rows are a subset
    layout = flat_layout(matrix.shape[1])
    stores = [WeightStore(layout, row) for row in matrix]
    diag: dict = {}
    tracemalloc.start()
    try:
        clustered_mean(stores, diagnostics=diag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diag["filtered"] == [4]
    assert peak < matrix.nbytes / 2, (
        f"peak {peak} B for a {matrix.nbytes} B update matrix")


@pytest.mark.parametrize(
    "aggregator", ["trimmed_mean", "coordinate_median", "clustered"])
def test_dense_aggregation_holds_no_update_matrix(aggregator):
    """A dense round reads the uploads where they live: the server
    collects registry row views, and no temporary of the aggregation
    comes near the size of a (clients, params) matrix."""
    n, num_params = 20, 4 * REDUCE_CHUNK + 123
    layout = flat_layout(num_params)
    rng = np.random.default_rng(8)
    registry = PersonalWeightsRegistry(layout)
    registry.assign(range(n))
    registry.rows.uploads[:n] = rng.standard_normal((n, num_params))
    arrivals = [ClientUpdate(cid, registry.uploads[cid], 10)
                for cid in range(n)]
    server = FLServer(WeightStore(layout),
                      FLConfig(num_clients=n, aggregator=aggregator),
                      Defense(), np.random.default_rng(0))
    tracemalloc.start()
    try:
        server.aggregate(iter(arrivals), expected=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix_nbytes = n * num_params * 8
    assert peak < matrix_nbytes / 2, (
        f"{aggregator}: peak {peak} B for a {matrix_nbytes} B matrix")


class TestChunkBoundaries:
    """Rules over stores wider than two column chunks (the last one
    ragged) equal the same statistic of the full stacked matrix."""

    N = 9

    @pytest.fixture
    def wide(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((self.N, 2 * REDUCE_CHUNK + 1234))
        matrix[3] += 40.0  # one clearly separated row for clustering
        return matrix, _rows(matrix)

    def test_trimmed_mean(self, wide):
        matrix, stores = wide
        expected = np.sort(matrix, axis=0)[2:self.N - 2].mean(axis=0)
        np.testing.assert_array_equal(
            trimmed_mean(stores, trim=2).buffer, expected)

    def test_coordinate_median(self, wide):
        matrix, stores = wide
        np.testing.assert_array_equal(
            coordinate_median(stores).buffer, np.median(matrix, axis=0))

    def test_clustered_mean(self, wide):
        matrix, stores = wide
        num_samples = list(range(10, 10 + self.N))
        # Squares sum within each chunk: the chunk width is part of
        # the distance's contract.
        diff = matrix - np.median(matrix, axis=0)
        expected_dist = np.sqrt(sum(
            np.einsum("ip,ip->i", diff[:, lo:lo + REDUCE_CHUNK],
                      diff[:, lo:lo + REDUCE_CHUNK])
            for lo in range(0, matrix.shape[1], REDUCE_CHUNK)))
        kept = [i for i in range(self.N) if i != 3]
        counts = np.asarray(num_samples, dtype=np.float64)[kept]
        expected = np.einsum("i,ip->p", counts / counts.sum(),
                             matrix[kept])

        diag: dict = {}
        out = clustered_mean(stores, num_samples, diagnostics=diag)
        assert diag["kept"] == kept
        assert diag["filtered"] == [3]
        np.testing.assert_array_equal(diag["distances"], expected_dist)
        np.testing.assert_array_equal(
            _cluster_distances(stores), expected_dist)
        np.testing.assert_array_equal(out.buffer, expected)


# ----------------------------------------------------------------------
# behaviors
# ----------------------------------------------------------------------

def _store(values) -> WeightStore:
    arr = np.asarray(values, dtype=np.float64)
    return WeightStore(flat_layout(arr.size), arr.copy())


class TestBehaviors:
    def test_sign_flip_formula(self):
        behavior = ByzantineBehavior(frozenset({3}), scale=4.0)
        start, trained = _store([1.0, -2.0]), _store([2.0, 0.0])
        out = behavior.corrupt_update(3, trained, start,
                                      behavior_rng(0, 0, 3))
        # start - 4 * (trained - start)
        assert np.array_equal(out.buffer, np.array([-3.0, -10.0]))

    def test_honest_client_untouched_by_adversarial_behavior(self):
        behavior = ByzantineBehavior(frozenset({3}))
        trained = _store([5.0, 6.0])
        out = behavior.corrupt_update(0, trained, _store([0.0, 0.0]),
                                      behavior_rng(0, 0, 0))
        assert out is trained

    def test_gaussian_uses_supplied_stream(self):
        behavior = ByzantineBehavior(frozenset({1}), variant="gaussian",
                                     scale=2.0)
        start = _store([0.0, 0.0, 0.0])
        a = behavior.corrupt_update(1, start, start,
                                    behavior_rng(7, 2, 1))
        b = behavior.corrupt_update(1, start, start,
                                    behavior_rng(7, 2, 1))
        assert np.array_equal(a.buffer, b.buffer)
        c = behavior.corrupt_update(1, start, start,
                                    behavior_rng(7, 3, 1))
        assert not np.array_equal(a.buffer, c.buffer)

    def test_label_flip_mirrors_labels(self):
        behavior = LabelFlipBehavior(frozenset({0}))
        y = np.array([0, 1, 2, 3])
        _, flipped = behavior.poison_data(0, None, y, num_classes=4)
        assert np.array_equal(flipped, np.array([3, 2, 1, 0]))
        _, honest = behavior.poison_data(1, None, y, num_classes=4)
        assert honest is y

    def test_free_rider_skips_training_and_camouflages(self):
        behavior = FreeRiderBehavior(frozenset({2}), camouflage=1e-3)
        assert behavior.skips_training(2)
        assert not behavior.skips_training(0)
        start = _store([1.0, 1.0, 1.0, 1.0])
        out = behavior.corrupt_update(2, _store([9.0] * 4), start,
                                      behavior_rng(0, 0, 2))
        assert np.max(np.abs(out.buffer - start.buffer)) < 0.01

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            make_behavior("gradient_ascent", frozenset({0}))

    def test_none_maps_to_honest_singleton(self):
        assert make_behavior("none", frozenset()) is HONEST
        assert make_behavior("byzantine", frozenset()) is HONEST


class TestSelectAdversaries:
    def test_deterministic_in_seed(self):
        a = select_adversaries(20, 0.25, seed=3)
        b = select_adversaries(20, 0.25, seed=3)
        assert a == b and len(a) == 5

    def test_varies_with_seed(self):
        draws = {select_adversaries(40, 0.25, seed=s) for s in range(8)}
        assert len(draws) > 1

    def test_zero_fraction_empty(self):
        assert select_adversaries(10, 0.0, seed=0) == frozenset()

    def test_at_least_one_never_all(self):
        assert len(select_adversaries(10, 0.01, seed=0)) == 1
        assert len(select_adversaries(4, 1.0 - 1e-9, seed=0)) == 3


# ----------------------------------------------------------------------
# config and server validation
# ----------------------------------------------------------------------

class TestConfigValidation:
    def test_rejects_unknown_aggregator(self):
        with pytest.raises(ValueError, match="aggregator"):
            FLConfig(aggregator="krum")

    def test_rejects_unknown_adversary(self):
        with pytest.raises(ValueError, match="adversary"):
            FLConfig(adversary="sybil", adversary_fraction=0.2)

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="adversary_fraction"):
            FLConfig(adversary="byzantine", adversary_fraction=1.0)
        with pytest.raises(ValueError, match="adversary_fraction"):
            FLConfig(adversary="byzantine", adversary_fraction=-0.1)

    def test_rejects_adversary_without_fraction(self):
        with pytest.raises(ValueError, match="adversary_fraction"):
            FLConfig(adversary="byzantine", adversary_fraction=0.0)

    def test_rejects_fraction_without_adversary(self):
        with pytest.raises(ValueError, match="adversary"):
            FLConfig(adversary="none", adversary_fraction=0.25)


@pytest.fixture
def small_split(rng):
    ds = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
    return split_for_membership(ds, rng)


def _run(small_split, tiny_model_factory, defense=None, **cfg_kwargs):
    defaults = dict(num_clients=4, rounds=2, local_epochs=1, lr=0.1,
                    batch_size=32, seed=5)
    defaults.update(cfg_kwargs)
    sim = FederatedSimulation(small_split, tiny_model_factory,
                              FLConfig(**defaults), defense)
    history = sim.run()
    return sim, history


class TestServerValidation:
    def test_sa_rejects_dense_aggregators(self, small_split,
                                          tiny_model_factory):
        with pytest.raises(ValueError, match="masked"):
            FederatedSimulation(
                small_split, tiny_model_factory,
                FLConfig(num_clients=4, rounds=1,
                         aggregator="coordinate_median"),
                SecureAggregation())

    def test_sa_still_composes_with_fedavg(self, small_split,
                                           tiny_model_factory):
        _, history = _run(small_split, tiny_model_factory,
                          SecureAggregation(), rounds=1,
                          aggregator="fedavg")
        assert history.records

    def test_trimmed_mean_short_cohort_error(self, small_split,
                                             tiny_model_factory):
        """Fleet knobs that shrink the cohort below 2*trim+1 fail with
        an error naming the knobs, not an opaque sort failure."""
        with pytest.raises(ValueError, match="sample_fraction"):
            _run(small_split, tiny_model_factory, rounds=1,
                 aggregator="trimmed_mean", sample_fraction=0.25)

    def test_coordinate_median_tolerates_short_cohort(self, small_split,
                                                      tiny_model_factory):
        """The documented fallback: the median is defined for any
        nonempty cohort, so it is the robust choice under aggressive
        sampling."""
        _, history = _run(small_split, tiny_model_factory, rounds=1,
                          aggregator="coordinate_median",
                          sample_fraction=0.25)
        assert history.records


# ----------------------------------------------------------------------
# end-to-end determinism and accounting
# ----------------------------------------------------------------------

BEHAVIOR_MIXES = [
    dict(adversary="none", adversary_fraction=0.0),
    dict(adversary="byzantine", adversary_fraction=0.25),
    dict(adversary="byzantine_gaussian", adversary_fraction=0.25),
    dict(adversary="label_flip", adversary_fraction=0.25),
    dict(adversary="free_rider", adversary_fraction=0.25),
]


def _snapshot(sim, history):
    return {
        "global": sim.server.global_weights.buffer.copy(),
        "personal": {
            cid: w.buffer.copy() for cid, w in sim.registry.items()
        },
        "transmitted": {
            cid: w.buffer.copy()
            for cid, w in sim.last_updates.items()
        },
        "records": [
            (r.adversaries, r.filtered, r.global_accuracy,
             r.mean_client_accuracy)
            for r in history.records
        ],
    }


def _assert_snapshots_equal(a, b):
    assert np.array_equal(a["global"], b["global"])
    assert a["personal"].keys() == b["personal"].keys()
    for cid in a["personal"]:
        assert np.array_equal(a["personal"][cid], b["personal"][cid])
    assert a["transmitted"].keys() == b["transmitted"].keys()
    for cid in a["transmitted"]:
        assert np.array_equal(a["transmitted"][cid],
                              b["transmitted"][cid])
    assert a["records"] == b["records"]


@pytest.mark.skipif(not HAS_FORK,
                    reason="parallel executor requires fork")
class TestSerialParallelBitwise:
    @pytest.mark.parametrize(
        "mix", BEHAVIOR_MIXES,
        ids=[m["adversary"] for m in BEHAVIOR_MIXES])
    def test_every_behavior_mix(self, small_split, tiny_model_factory,
                                mix):
        serial = _snapshot(*_run(small_split, tiny_model_factory,
                                 workers=0, **mix))
        parallel = _snapshot(*_run(small_split, tiny_model_factory,
                                   workers=2, **mix))
        _assert_snapshots_equal(serial, parallel)

    def test_clustered_aggregator_bitwise(self, small_split,
                                          tiny_model_factory):
        mix = dict(aggregator="clustered", adversary="byzantine",
                   adversary_fraction=0.25)
        serial = _snapshot(*_run(small_split, tiny_model_factory,
                                 workers=0, **mix))
        parallel = _snapshot(*_run(small_split, tiny_model_factory,
                                   workers=2, **mix))
        _assert_snapshots_equal(serial, parallel)


class TestAccounting:
    def test_adversaries_recorded(self, small_split,
                                  tiny_model_factory):
        sim, history = _run(small_split, tiny_model_factory,
                            adversary="byzantine",
                            adversary_fraction=0.25, eval_every=1)
        expected = sorted(sim.behavior.adversaries)
        assert expected  # 25% of 4 clients -> exactly one
        for record in history.records:
            assert record.adversaries == expected
        report = sim.cost_meter.report
        assert report.clients_adversarial == \
            len(expected) * sim.config.rounds
        assert "adversarial" in report.participation_summary()

    def test_honest_run_records_nothing(self, small_split,
                                        tiny_model_factory):
        sim, history = _run(small_split, tiny_model_factory,
                            eval_every=1)
        for record in history.records:
            assert record.adversaries == []
            assert record.filtered == []
        report = sim.cost_meter.report
        assert report.clients_adversarial == 0
        assert report.clients_filtered == 0
        assert "adversarial" not in report.participation_summary()

    def test_clustered_filtering_recorded(self, small_split,
                                          tiny_model_factory):
        sim, history = _run(small_split, tiny_model_factory,
                            num_clients=8, aggregator="clustered",
                            adversary="byzantine",
                            adversary_fraction=0.25, eval_every=1)
        adversaries = set(sim.behavior.adversaries)
        filtered_rounds = [set(r.filtered) for r in history.records]
        # The boosted sign-flip is exactly what norm clustering
        # catches; every round's filter is a subset of the true
        # adversary set (it never throws away honest clients here).
        assert any(filtered_rounds)
        for filtered in filtered_rounds:
            assert filtered <= adversaries
        assert sim.cost_meter.report.clients_filtered == \
            sum(len(f) for f in filtered_rounds)
