"""Fleet-plane tests: streaming aggregation, partial participation,
dropout, and straggler-tolerant round closing.

The two invariants these tests defend:

* **Exactness** — the streaming accumulator reproduces the dense
  reductions (single-block folds are literally the same einsum call;
  multi-block folds continue the same accumulation chain), and fleet
  knobs at their defaults reproduce the pre-fleet trajectories bitwise.
* **Determinism** — cohort sub-sampling, dropout and round closing are
  pure functions of ``(seed, round, client)``, so serial and parallel
  runs stay bitwise identical even with every fleet knob engaged.
"""

from __future__ import annotations

import math
import multiprocessing

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.aggregation import (
    DENSE_CLIENT_CAP,
    StreamingAccumulator,
    UpdateBatch,
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
from repro.nn.store import Layout, WeightStore
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.make import make_defense_for_config
from repro.privacy.defenses.secure_aggregation import SecureAggregation

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _random_stores(rng, n, num_params=37):
    layout = Layout.from_layers(
        [{"W": np.zeros(num_params, dtype=np.float64)}])
    stores = [
        WeightStore(layout, rng.standard_normal(num_params))
        for _ in range(n)
    ]
    return stores, layout


def _updates_from(stores, num_samples):
    return [
        ClientUpdate(client_id=i, weights=s, num_samples=n,
                     train_seconds=0.0, defense_seconds=0.0)
        for i, (s, n) in enumerate(zip(stores, num_samples))
    ]


# ----------------------------------------------------------------------
# StreamingAccumulator: exactness against the dense reductions
# ----------------------------------------------------------------------

class TestStreamingAccumulator:
    @pytest.mark.parametrize("n,block", [(3, 64), (13, 4), (64, 64),
                                         (65, 64), (200, 64)])
    def test_fedavg_bitwise(self, rng, n, block):
        """Known-total folds equal the one-shot dense FedAvg einsum."""
        stores, layout = _random_stores(rng, n)
        num_samples = [int(k) for k in rng.integers(1, 50, size=n)]
        dense = fedavg(stores, num_samples)
        acc = StreamingAccumulator(layout, block=block)
        acc.reset(total_weight=float(sum(num_samples)))
        for store, k in zip(stores, num_samples):
            acc.fold(store, weight=float(k))
        streamed = acc.drain()
        assert np.array_equal(streamed.buffer, dense.buffer)

    @pytest.mark.parametrize("n,block", [(5, 64), (30, 8)])
    def test_sum_mode_bitwise(self, rng, n, block):
        """Unit-weight folds without a total equal sum_updates."""
        stores, layout = _random_stores(rng, n)
        dense = sum_updates(stores)
        acc = StreamingAccumulator(layout, block=block)
        acc.reset()
        for store in stores:
            acc.fold(store)
        assert np.array_equal(acc.drain().buffer, dense.buffer)
        assert acc.weight_sum == float(n)

    def test_unknown_total_normalizes_close(self, rng):
        """weight_sum normalization lands within the ULP envelope."""
        stores, layout = _random_stores(rng, 9)
        num_samples = [int(k) for k in rng.integers(1, 20, size=9)]
        acc = StreamingAccumulator(layout, block=4)
        acc.reset()
        for store, k in zip(stores, num_samples):
            acc.fold(store, weight=float(k))
        streamed = acc.drain() * (1.0 / acc.weight_sum)
        dense = fedavg(stores, num_samples)
        np.testing.assert_allclose(streamed.buffer, dense.buffer,
                                   rtol=1e-12)

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

    def test_bad_block_rejected(self, rng):
        _, layout = _random_stores(rng, 1)
        with pytest.raises(ValueError, match="block"):
            StreamingAccumulator(layout, block=0)

    def test_reset_reuses_across_rounds(self, rng):
        stores, layout = _random_stores(rng, 6)
        acc = StreamingAccumulator(layout, block=2)
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
        acc = StreamingAccumulator(layout, block=8)
        acc.reset()
        before = acc.nbytes
        for _ in range(500):
            acc.fold(stores[0])
        assert acc.nbytes == before
        assert acc.count == 500

    def test_rejects_foreign_layout(self, rng):
        stores, layout = _random_stores(rng, 1)
        other = WeightStore.from_layers([{"W": np.zeros((2, 2))}])
        acc = StreamingAccumulator(layout)
        acc.reset()
        with pytest.raises(ValueError, match="layout"):
            acc.fold(other)


# ----------------------------------------------------------------------
# UpdateBatch: dense fallback growth + cap
# ----------------------------------------------------------------------

class TestUpdateBatchGrowth:
    def test_add_grows_geometrically(self, rng):
        stores, layout = _random_stores(rng, 5)
        batch = UpdateBatch(layout, capacity=2)
        for store in stores:
            batch.add(store)
        assert len(batch) == 5
        assert np.array_equal(batch.matrix[4], stores[4].buffer)

    def test_ensure_capacity_preserves_rows(self, rng):
        stores, layout = _random_stores(rng, 3)
        batch = UpdateBatch(layout, capacity=2)
        batch.add(stores[0])
        batch.add(stores[1])
        batch.ensure_capacity(50)
        batch.add(stores[2])
        assert len(batch) == 3
        for i in range(3):
            assert np.array_equal(batch.matrix[i], stores[i].buffer)

    def test_cap_rejects_fleet_scale(self, rng):
        stores, layout = _random_stores(rng, 3)
        batch = UpdateBatch(layout, capacity=2, client_cap=2)
        batch.add(stores[0])
        batch.add(stores[1])
        with pytest.raises(ValueError, match="StreamingAccumulator"):
            batch.add(stores[2])
        with pytest.raises(ValueError, match="StreamingAccumulator"):
            batch.ensure_capacity(3)

    def test_cap_validates_construction(self, rng):
        _, layout = _random_stores(rng, 1)
        with pytest.raises(ValueError, match="client_cap"):
            UpdateBatch(layout, capacity=10, client_cap=5)
        assert UpdateBatch(layout).client_cap == DENSE_CLIENT_CAP

    def test_collect_presizes_beyond_doubling(self, rng):
        """Regression: a cohort larger than twice the previous round's
        must land in one pre-sized matrix, not via doubling copies."""
        stores, layout = _random_stores(rng, 9)
        config = FLConfig(num_clients=9, seed=0)
        server = FLServer(stores[0], config, Defense(),
                          np.random.default_rng(0))
        small = server._collect(_updates_from(stores[:2], [1, 1]))
        assert len(small) == 2
        big = server._collect(
            _updates_from(stores, [1] * 9))
        assert big is small  # pooled matrix reused, grown in place
        assert len(big) == 9
        assert big.nbytes >= 9 * layout.num_params * 8
        for i in range(9):
            assert np.array_equal(big.matrix[i], stores[i].buffer)


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
        trained = [c.client_id for c in sim.clients
                   if c.personal_weights is not None]
        assert trained == [0, 1]

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
        assert report.completion_rate == 0.5
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
        assert report.completion_rate == 10 / 14
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
        assert CostMeter().report.completion_rate == 0.0

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
    # constant-memory invariant: the server never built a dense batch
    assert sim.server._batch is None
    assert sim.server._accumulator.nbytes < 10 * 2**20
