"""Fleet-plane tests: streaming aggregation, partial participation,
dropout, and straggler-tolerant round closing.

The two invariants these tests defend:

* **Exactness** — the streaming accumulator reproduces the dense
  reductions (each fold carries the partial into the same einsum and
  continues the dense accumulation chain), and fleet
  knobs at their defaults reproduce the pre-fleet trajectories bitwise.
* **Determinism** — cohort sub-sampling, dropout and round closing are
  pure functions of ``(seed, round, client)``, so serial and parallel
  runs stay bitwise identical even with every fleet knob engaged.
"""

from __future__ import annotations

import math
import multiprocessing
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.aggregation import (
    DENSE_CLIENT_CAP,
    REDUCE_CHUNK,
    StreamingAccumulator,
    fedavg,
    requires_dense,
    sum_updates,
    trimmed_mean,
)
from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.costs import CostMeter
from repro.fl.executor import client_drops
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.fl.virtual import PersonalWeightsRegistry
from repro.nn.store import WeightStore
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.make import make_defense_for_config
from repro.privacy.defenses.secure_aggregation import SecureAggregation
from tests.conftest import flat_layout, store_of

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _random_stores(rng, n, num_params=37, dtype=np.float64):
    layout = flat_layout(num_params, dtype)
    stores = [
        WeightStore(layout, rng.standard_normal(num_params).astype(dtype))
        for _ in range(n)
    ]
    return stores, layout


def _updates_from(stores, num_samples):
    return [
        ClientUpdate(client_id=i, weights=s, num_samples=n)
        for i, (s, n) in enumerate(zip(stores, num_samples))
    ]


# ----------------------------------------------------------------------
# StreamingAccumulator: exactness against the dense reductions
# ----------------------------------------------------------------------

class TestStreamingAccumulator:
    @staticmethod
    def _streamed_fedavg(stores, layout, num_samples):
        acc = StreamingAccumulator(layout)
        acc.reset(total_weight=float(sum(num_samples)))
        for store, k in zip(stores, num_samples):
            acc.fold(store, weight=float(k))
        return acc.drain()

    # The second parameter is the update width: narrow, default and
    # wide rows all slice the two-row chunk scratch differently.
    @pytest.mark.parametrize("n,num_params", [
        (1, 37), (3, 64), (13, 4), (64, 64), (65, 64), (200, 64),
        (40, REDUCE_CHUNK + 123)])
    def test_fedavg_bitwise(self, rng, n, num_params):
        """Known-total folds equal the one-shot dense FedAvg einsum."""
        stores, layout = _random_stores(rng, n, num_params)
        num_samples = [int(k) for k in rng.integers(1, 50, size=n)]
        dense = fedavg(stores, num_samples)
        streamed = self._streamed_fedavg(stores, layout, num_samples)
        assert np.array_equal(streamed.buffer, dense.buffer)

    @pytest.mark.parametrize("n,num_params", [
        (1, 37), (3, 37), (13, 37), (64, 37), (65, 37), (200, 37),
        (40, REDUCE_CHUNK + 123)])
    def test_fedavg_bitwise_float32(self, rng, n, num_params):
        """A float32 layout folds in float32, bitwise equal to dense."""
        stores, layout = _random_stores(rng, n, num_params, np.float32)
        num_samples = [int(k) for k in rng.integers(1, 50, size=n)]
        dense = fedavg(stores, num_samples)
        streamed = self._streamed_fedavg(stores, layout, num_samples)
        assert streamed.buffer.dtype == np.float32
        assert np.array_equal(streamed.buffer, dense.buffer)

    @pytest.mark.parametrize("n,num_params", [(5, 64), (30, 8)])
    def test_sum_mode_bitwise(self, rng, n, num_params):
        """Unit-weight folds without a total equal sum_updates."""
        stores, layout = _random_stores(rng, n, num_params)
        dense = sum_updates(stores)
        acc = StreamingAccumulator(layout)
        acc.reset()
        for store in stores:
            acc.fold(store)
        assert np.array_equal(acc.drain().buffer, dense.buffer)

    def test_zero_drain_rejected(self, rng):
        _, layout = _random_stores(rng, 1)
        acc = StreamingAccumulator(layout)
        with pytest.raises(ValueError, match="zero updates"):
            acc.drain()

    def test_bad_total_rejected(self, rng):
        _, layout = _random_stores(rng, 1)
        acc = StreamingAccumulator(layout)
        with pytest.raises(ValueError, match="total weight"):
            acc.reset(total_weight=0.0)

    def test_reset_reuses_across_rounds(self, rng):
        stores, layout = _random_stores(rng, 6)
        acc = StreamingAccumulator(layout)
        for _ in range(3):
            acc.reset(total_weight=6.0)
            for store in stores:
                acc.fold(store, weight=1.0)
            round_result = acc.drain()
        dense = fedavg(stores, [1] * 6)
        assert np.array_equal(round_result.buffer, dense.buffer)
        assert acc.count == 6

    def test_memory_constant_in_clients(self, rng):
        """nbytes never moves, no matter how many clients fold."""
        stores, layout = _random_stores(rng, 1)
        acc = StreamingAccumulator(layout)
        acc.reset()
        before = acc.nbytes
        for _ in range(500):
            acc.fold(stores[0])
        assert acc.nbytes == before
        assert acc.count == 500

    @pytest.mark.parametrize("num_params", [37, REDUCE_CHUNK + 123])
    def test_nbytes_is_scratch_plus_partial(self, rng, num_params):
        """Two chunk-wide scratch rows plus one partial vector."""
        _, layout = _random_stores(rng, 1, num_params)
        bound = (2 * min(REDUCE_CHUNK, num_params) + num_params) * 8
        assert StreamingAccumulator(layout).nbytes <= bound

    def test_fold_and_drain_peak_below_three_rows(self, rng):
        """Folding arriving updates copies none of them: a 10-client
        round on the 226k-param FCNN peaks at the partial vector, the
        chunk scratch and the drained copy."""
        stores, layout = _random_stores(rng, 10, 226_340)
        row_bytes = layout.num_params * 8
        tracemalloc.start()
        try:
            acc = StreamingAccumulator(layout)
            acc.reset(total_weight=10.0)
            for store in stores:
                acc.fold(store, weight=1.0)
            acc.drain()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * row_bytes, f"{peak / row_bytes:.2f} rows"

    def test_rejects_foreign_layout(self, rng):
        stores, layout = _random_stores(rng, 1)
        other = store_of([{"W": np.zeros((2, 2))}])
        acc = StreamingAccumulator(layout)
        acc.reset()
        with pytest.raises(ValueError, match="layout"):
            acc.fold(other)


# ----------------------------------------------------------------------
# uploads: one registry row per client; the dense cohort cap
# ----------------------------------------------------------------------

class TestUploadRegistry:
    def test_last_updates_is_a_mapping(self):
        sim = _tiny_sim(completion_threshold=0.5)
        sim.run_round(0)
        uploads = sim.last_updates
        assert isinstance(uploads, Mapping)
        assert sorted(uploads.keys()) == [0, 1]
        assert len(uploads) == 2
        assert 1 in uploads and 3 not in uploads
        layout = sim.server.global_weights.layout
        assert {cid: store.layout for cid, store in uploads.items()} \
            == {0: layout, 1: layout}
        with pytest.raises(KeyError):
            uploads[3]

    def test_held_view_shows_the_next_upload(self):
        sim = _tiny_sim(rounds=2)
        sim.run_round(0)
        held = sim.last_updates[1]
        first = held.buffer.copy()
        sim.run_round(1)
        assert np.shares_memory(held.buffer, sim.last_updates[1].buffer)
        assert not np.array_equal(held.buffer, first)

    def test_reserve_grows_once_and_keeps_rows(self, rng):
        stores, layout = _random_stores(rng, 3)
        registry = PersonalWeightsRegistry(layout)
        uploads = registry.uploads
        for cid in registry.assign([0, 1]):
            registry.rows.uploads[registry.row(cid)] = stores[cid].buffer
        registry.reserve(range(40))
        assert len(uploads) == 2  # reserving assigns no slot
        reserved = registry.nbytes
        # 40 rows in each weight plane (no defense state)
        assert reserved == 2 * 40 * stores[0].buffer.nbytes
        held = uploads[0]
        for cid in registry.assign(range(2, 40)):
            registry.rows.uploads[registry.row(cid)] = stores[2].buffer
        assert registry.nbytes == reserved
        assert np.shares_memory(held.buffer, uploads[0].buffer)
        for cid in range(2):
            np.testing.assert_array_equal(uploads[cid].buffer,
                                          stores[cid].buffer)
        registry.reserve(range(40))
        assert registry.nbytes == reserved


class TestDenseCap:
    @pytest.mark.parametrize(
        "aggregator", ["trimmed_mean", "coordinate_median", "clustered"])
    def test_refused_before_any_client_trains(self, rng, aggregator):
        server = _make_server(rng, aggregator=aggregator)
        advanced = []

        def arrivals():
            advanced.append(True)
            yield from ()

        with pytest.raises(ValueError, match=(
                r"aggregator='fedavg'.*clients_per_round.*"
                r"sample_fraction")):
            server.aggregate(arrivals(), expected=DENSE_CLIENT_CAP + 1)
        assert not advanced

    def test_cohort_at_the_cap_aggregates(self, rng):
        server = _make_server(rng, aggregator="coordinate_median")
        stores, _ = _random_stores(rng, 3)
        server.aggregate(_updates_from(stores, [10, 10, 10]),
                         expected=DENSE_CLIENT_CAP)


class TestRuleCapabilities:
    def test_streaming_rules(self):
        assert not requires_dense(fedavg)
        assert not requires_dense("fedavg")
        assert not requires_dense("sum")

    def test_dense_rules(self):
        assert requires_dense(trimmed_mean)
        assert requires_dense("trimmed_mean")
        assert requires_dense("coordinate_median")

    def test_unknown_callable_is_conservatively_dense(self):
        assert requires_dense(lambda updates: None)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            requires_dense("krum")


# ----------------------------------------------------------------------
# config + CLI plumbing
# ----------------------------------------------------------------------

class TestFleetConfig:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(sample_fraction=0.0), "sample_fraction"),
        (dict(sample_fraction=1.5), "sample_fraction"),
        (dict(drop_rate=-0.1), "drop_rate"),
        (dict(drop_rate=1.0), "drop_rate"),
        (dict(completion_threshold=0.0), "completion_threshold"),
        (dict(completion_threshold=1.1), "completion_threshold"),
        (dict(drop_rate=0.5, completion_threshold=0.8),
         "not satisfiable"),
    ])
    def test_rejects_bad_knobs(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FLConfig(**kwargs)

    def test_accepts_satisfiable_knobs(self):
        config = FLConfig(sample_fraction=0.5, drop_rate=0.3,
                          completion_threshold=0.7)
        assert config.completion_threshold == 0.7

    def test_cli_flags_thread_through(self):
        from repro.cli import _build_parser, _config_from_args
        from repro.data import available_datasets
        dataset = available_datasets()[0]
        args = _build_parser().parse_args(
            ["run", "--dataset", dataset,
             "--sample-fraction", "0.5", "--drop-rate", "0.2",
             "--completion-threshold", "0.6"])
        config = _config_from_args(args)
        assert config.sample_fraction == 0.5
        assert config.drop_rate == 0.2
        assert config.completion_threshold == 0.6


# ----------------------------------------------------------------------
# cohort sub-sampling + dropout streams
# ----------------------------------------------------------------------

def _make_server(rng, *, num_clients=8, **cfg_kwargs):
    stores, _ = _random_stores(rng, 1)
    config = FLConfig(num_clients=num_clients, seed=3, **cfg_kwargs)
    return FLServer(stores[0], config, Defense(),
                    np.random.default_rng(7))


class TestSampleFraction:
    def test_default_selects_everyone(self, rng):
        server = _make_server(rng)
        assert server.select_clients(0) == list(range(8))

    def test_fraction_sizes_cohort(self, rng):
        server = _make_server(rng, sample_fraction=0.5)
        cohort = server.select_clients(0)
        assert len(cohort) == 4
        assert set(cohort) <= set(range(8))
        assert cohort == sorted(cohort)

    def test_fraction_floors_at_one(self, rng):
        server = _make_server(rng, num_clients=3,
                              sample_fraction=0.05)
        assert len(server.select_clients(0)) == 1

    def test_deterministic_per_round(self, rng):
        a = _make_server(rng, sample_fraction=0.5)
        b = _make_server(rng, sample_fraction=0.5)
        assert a.select_clients(2) == b.select_clients(2)
        rounds = {tuple(a.select_clients(r)) for r in range(20)}
        assert len(rounds) > 1  # stream varies across rounds

    def test_layers_under_clients_per_round(self, rng):
        server = _make_server(rng, clients_per_round=6,
                              sample_fraction=0.5)
        cohort = server.select_clients(0)
        assert len(cohort) == 3

    def test_pool_draws_unchanged_by_fraction(self, rng):
        """clients_per_round sampling consumes the same server-RNG
        draws whether or not sub-sampling is layered on top."""
        plain = _make_server(rng, clients_per_round=4)
        sampled = _make_server(rng, clients_per_round=4,
                               sample_fraction=0.5)
        pools = [plain.select_clients(r) for r in range(5)]
        subs = [sampled.select_clients(r) for r in range(5)]
        for pool, sub in zip(pools, subs):
            assert set(sub) <= set(pool)


class TestClientDrops:
    def test_deterministic(self):
        draws = [client_drops(0, 2, 5, 0.4) for _ in range(5)]
        assert len(set(draws)) == 1

    def test_zero_rate_never_draws(self):
        assert not any(client_drops(0, r, c, 0.0)
                       for r in range(50) for c in range(50))

    def test_rate_roughly_respected(self):
        drops = sum(client_drops(1, r, c, 0.3)
                    for r in range(50) for c in range(50))
        assert 0.2 < drops / 2500 < 0.4

    def test_cells_independent(self):
        draws = {(r, c): client_drops(0, r, c, 0.5)
                 for r in range(30) for c in range(30)}
        assert any(draws.values()) and not all(draws.values())


# ----------------------------------------------------------------------
# round closing policy
# ----------------------------------------------------------------------

def _tiny_sim(defense=None, *, num_clients=4, rounds=1, seed=5,
              **cfg_kwargs):
    rng = np.random.default_rng(9)
    data = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
    split = split_for_membership(data, rng)
    config = FLConfig(num_clients=num_clients, rounds=rounds,
                      local_epochs=1, lr=0.1, batch_size=32, seed=seed,
                      eval_every=1, **cfg_kwargs)
    from repro.models.fcnn import build_fcnn
    factory = lambda r: build_fcnn(20, 4, r, hidden=(8,))
    return FederatedSimulation(split, factory, config, defense)


class TestRoundClosing:
    def test_stragglers_discarded(self):
        """threshold=0.5 on a 4-cohort: first 2 arrivals close the
        round, the other 2 are stragglers whose results never land."""
        sim = _tiny_sim(completion_threshold=0.5)
        record = sim.run_round(0)
        assert record.completed == [0, 1]
        assert record.stragglers == [2, 3]
        assert record.dropped == []
        assert sorted(sim.last_updates) == [0, 1]
        assert sim.registry.client_ids() == [0, 1]

    def test_threshold_exactly_met(self):
        """Survivors == needed closes the round with no stragglers."""
        seed = next(
            s for s in range(1000)
            if sum(client_drops(s, 0, c, 0.25) for c in range(4)) == 1)
        sim = _tiny_sim(seed=seed, drop_rate=0.25,
                        completion_threshold=0.75)
        record = sim.run_round(0)
        assert len(record.dropped) == 1
        assert len(record.completed) == 3
        assert record.stragglers == []

    def test_zero_completions_is_clear_error(self):
        """All clients dropping must fail loudly, not aggregate junk."""
        seed = next(
            s for s in range(1000)
            if all(client_drops(s, 0, c, 0.9) for c in range(3)))
        sim = _tiny_sim(num_clients=3, seed=seed, drop_rate=0.9,
                        completion_threshold=0.1)
        with pytest.raises(RuntimeError, match="cannot close"):
            sim.run_round(0)

    def test_short_round_is_clear_error(self):
        """Fewer survivors than the threshold fails before training."""
        seed = next(
            s for s in range(1000)
            if sum(client_drops(s, 0, c, 0.5) for c in range(4)) >= 3)
        sim = _tiny_sim(seed=seed, drop_rate=0.5,
                        completion_threshold=0.5)
        with pytest.raises(RuntimeError, match="cannot close"):
            sim.run_round(0)

    def test_default_knobs_reproduce_prefleet_round(self):
        """Explicit default knobs change nothing, bit for bit."""
        plain = _tiny_sim()
        explicit = _tiny_sim(sample_fraction=1.0, drop_rate=0.0,
                             completion_threshold=1.0)
        plain.run()
        explicit.run()
        assert np.array_equal(
            plain.server.global_weights.buffer,
            explicit.server.global_weights.buffer)
        record = explicit.history.records[-1]
        assert record.completed == record.participating
        assert record.dropped == [] and record.stragglers == []

    def test_participation_accounted(self):
        sim = _tiny_sim(rounds=2, completion_threshold=0.5)
        sim.run()
        report = sim.cost_meter.report
        assert report.clients_sampled == 8
        assert report.clients_completed == 4
        assert report.clients_straggled == 4
        assert report.clients_dropped == 0
        assert "4/8 completed" in report.participation_summary()


# ----------------------------------------------------------------------
# secure aggregation: requires_full_cohort guards
# ----------------------------------------------------------------------

class TestFullCohortGuards:
    def test_simulation_rejects_dropout_config(self):
        with pytest.raises(ValueError, match="full cohort"):
            _tiny_sim(SecureAggregation(), drop_rate=0.2,
                      completion_threshold=0.8)

    def test_simulation_rejects_threshold_config(self):
        with pytest.raises(ValueError, match="full cohort"):
            _tiny_sim(SecureAggregation(), completion_threshold=0.5)

    def test_sample_fraction_allowed(self):
        """Sub-sampling shrinks the cohort *before* masks are
        negotiated, so SA stays correct — only post-negotiation
        losses are fatal."""
        sim = _tiny_sim(SecureAggregation(), sample_fraction=0.5)
        record = sim.run_round(0)
        assert len(record.completed) == 2

    def test_server_refuses_short_cohort(self, rng):
        """A requires_full_cohort defense must refuse to finalize a
        short round instead of draining a mask-corrupted sum."""
        stores, _ = _random_stores(rng, 3)
        config = FLConfig(num_clients=3, seed=0)
        server = FLServer(stores[0], config, SecureAggregation(),
                          np.random.default_rng(0))
        before = server.global_weights.buffer.copy()
        updates = _updates_from(stores[:2], [4, 6])
        with pytest.raises(RuntimeError, match="full cohort"):
            server.aggregate(iter(updates), expected=3)
        assert np.array_equal(server.global_weights.buffer, before)


class _PreWeightedDefense(Defense):
    """pre_weighted without the full-cohort requirement, to isolate
    the total-from-folded fix."""

    name = "preweighted-test"
    pre_weighted = True


class TestPreWeightedTotals:
    def test_total_from_folded_updates(self, rng):
        """The divisor must come from the updates actually folded
        (post-dropout), not the selected cohort size."""
        stores, layout = _random_stores(rng, 3)
        num_samples = [4, 6, 10]
        # pre_weighted protocol: clients transmit num_samples * weights
        transmitted = [s * float(k)
                       for s, k in zip(stores, num_samples)]
        config = FLConfig(num_clients=3, seed=0)
        server = FLServer(stores[0].zeros_like(), config,
                          _PreWeightedDefense(),
                          np.random.default_rng(0))
        folded = _updates_from(transmitted[:2], num_samples[:2])
        out = server.aggregate(iter(folded), expected=3)
        expected = fedavg(stores[:2], num_samples[:2])
        np.testing.assert_allclose(out.buffer, expected.buffer,
                                   rtol=1e-12)


# ----------------------------------------------------------------------
# serial vs parallel: streaming parity under fleet knobs
# ----------------------------------------------------------------------

FLEET_DEFENSES = ("none", "dinar", "ldp", "wdp", "cdp", "gc")


@pytest.mark.skipif(not HAS_FORK, reason="parallel executor "
                    "requires the fork start method")
class TestStreamingParity:
    def _snapshot(self, defense_name, workers, **fleet):
        config = FLConfig(num_clients=5, rounds=2, local_epochs=1,
                          lr=0.1, batch_size=32, seed=11, eval_every=2,
                          workers=workers, **fleet)
        defense = make_defense_for_config(defense_name, config)
        rng = np.random.default_rng(9)
        data = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
        split = split_for_membership(data, rng)
        from repro.models.fcnn import build_fcnn
        factory = lambda r: build_fcnn(20, 4, r, hidden=(8,))
        sim = FederatedSimulation(split, factory, config, defense)
        sim.run()
        return {
            "global": sim.server.global_weights.buffer.copy(),
            "transmitted": {
                cid: w.buffer.copy()
                for cid, w in sim.last_updates.items()
            },
            "records": [
                (r.completed, r.dropped, r.stragglers)
                for r in sim.history.records
            ],
        }

    @pytest.mark.parametrize("defense_name", FLEET_DEFENSES)
    def test_fleet_knobs_bitwise(self, defense_name):
        fleet = dict(sample_fraction=0.8, drop_rate=0.2,
                     completion_threshold=0.5)
        serial = self._snapshot(defense_name, 0, **fleet)
        parallel = self._snapshot(defense_name, 2, **fleet)
        assert np.array_equal(serial["global"], parallel["global"])
        assert serial["transmitted"].keys() \
            == parallel["transmitted"].keys()
        for cid in serial["transmitted"]:
            assert np.array_equal(serial["transmitted"][cid],
                                  parallel["transmitted"][cid])
        assert serial["records"] == parallel["records"]

    def test_sa_with_sampling_bitwise(self):
        serial = self._snapshot("sa", 0, sample_fraction=0.8)
        parallel = self._snapshot("sa", 2, sample_fraction=0.8)
        assert np.array_equal(serial["global"], parallel["global"])


# ----------------------------------------------------------------------
# CostMeter participation accounting
# ----------------------------------------------------------------------

class TestCostMeterFleet:
    def test_record_participation_sums(self):
        meter = CostMeter()
        meter.record_participation(sampled=10, completed=6, dropped=3,
                                   stragglers=1)
        meter.record_participation(sampled=4, completed=4, dropped=0,
                                   stragglers=0)
        report = meter.report
        assert report.clients_sampled == 14
        assert report.clients_completed == 10
        assert report.clients_dropped == 3
        assert report.clients_straggled == 1
        assert report.participation_summary() == \
            "10/14 completed (dropped 3, stragglers 1)"

    def test_record_participation_validates_partition(self):
        meter = CostMeter()
        with pytest.raises(ValueError, match="partition"):
            meter.record_participation(sampled=5, completed=3,
                                       dropped=1, stragglers=0)
        with pytest.raises(ValueError, match=">= 0"):
            meter.record_participation(sampled=1, completed=2,
                                       dropped=-1, stragglers=0)

    def test_empty_report_rates(self):
        assert CostMeter().report.participation_summary() == \
            "0/0 completed (dropped 0, stragglers 0)"

    def test_merge_server_round(self):
        meter = CostMeter()
        meter.merge_server_round(0.25)
        assert meter.report.server_rounds == 1
        assert meter.report.server_aggregate_seconds == 0.25
        with pytest.raises(ValueError, match=">= 0"):
            meter.merge_server_round(-0.1)


# ----------------------------------------------------------------------
# fleet smoke: 1k sampled clients in constant aggregation memory
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_fleet_smoke_1k_clients():
    """1000 clients, 2 straggler-tolerant rounds, serial: the round
    pipeline never materializes a dense cohort matrix, so this runs in
    the same aggregation memory as a 3-client round."""
    rng = np.random.default_rng(0)
    data = synthetic_tabular(rng, 4000, 16, 4, noise=0.3, name="fleet")
    split = split_for_membership(data, rng)
    config = FLConfig(num_clients=1000, rounds=2, local_epochs=1,
                      lr=0.05, batch_size=8, seed=0, eval_every=2,
                      sample_fraction=0.5, drop_rate=0.1,
                      completion_threshold=0.6)
    from repro.models.fcnn import build_fcnn
    factory = lambda r: build_fcnn(16, 4, r, hidden=(8,))
    sim = FederatedSimulation(split, factory, config)
    history = sim.run()
    report = sim.cost_meter.report
    assert report.clients_sampled == 1000  # 2 rounds x 500 sampled
    assert report.clients_completed == 2 * math.ceil(0.6 * 500)
    assert report.clients_completed + report.clients_dropped \
        + report.clients_straggled == report.clients_sampled
    record = history.records[-1]
    assert len(record.completed) == math.ceil(0.6 * 500)
    assert 0.0 <= history.final_global_accuracy <= 1.0
    # constant-memory invariant: FedAvg folded through the accumulator
    assert sim.server._accumulator.nbytes < 10 * 2**20
