"""Network transport model and traffic accounting tests."""

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.network import (
    LinkSpec,
    NetworkModel,
    TrafficMeter,
    dense_nbytes,
    sparse_nbytes,
)
from repro.fl.simulation import FederatedSimulation
from repro.nn.store import WeightStore


class TestLinkSpec:
    def test_transfer_time(self):
        link = LinkSpec(latency_seconds=0.1,
                        bandwidth_bytes_per_second=1000)
        assert link.transfer_seconds(500) == pytest.approx(0.6)

    def test_zero_bytes_costs_latency_only(self):
        link = LinkSpec(latency_seconds=0.05)
        assert link.transfer_seconds(0) == pytest.approx(0.05)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LinkSpec(latency_seconds=-1)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_bytes_per_second=0)
        with pytest.raises(ValueError):
            LinkSpec().transfer_seconds(-1)


class TestEncodings:
    def test_dense_counts_all_arrays(self, tiny_model):
        weights = tiny_model.get_store()
        expected = sum(e.size for e in weights.layout.entries) * 8
        assert dense_nbytes(weights) == expected

    def test_sparse_counts_nonzero(self):
        weights = WeightStore.from_layers(
            [{"W": np.array([[0.0, 1.0], [0.0, 2.0]])}])
        assert sparse_nbytes(weights) == 2 * 12  # 2 coords x (8+4)

    def test_sparse_against_reference(self):
        ref = WeightStore.from_layers([{"W": np.ones((2, 2))}])
        changed = WeightStore.from_layers(
            [{"W": np.array([[1.0, 1.0], [5.0, 1.0]])}])
        assert sparse_nbytes(changed, ref) == 12

    def test_sparse_cheaper_than_dense_when_sparse(self, tiny_model):
        weights = tiny_model.get_store()
        mostly_same = weights.copy()
        mostly_same.view(0, "W")[0, 0] += 1.0
        assert sparse_nbytes(mostly_same, weights) \
            < dense_nbytes(weights)

    def test_dense_store_answers_from_layout(self, tiny_model):
        store = tiny_model.get_store()
        assert dense_nbytes(store) == store.layout.nbytes

    def test_sparse_store_counts_nonzero_per_entry(self, tiny_model):
        store = tiny_model.get_store()
        store.buffer[::3] = 0.0
        nonzero = sum(int(np.count_nonzero(store.view(e.layer_idx, e.key)))
                      for e in store.layout.entries)
        assert sparse_nbytes(store) == nonzero * 12

    def test_sparse_store_delta_counts_changed_coordinates(
            self, tiny_model):
        reference = tiny_model.get_store()
        changed = reference.copy()
        changed.view(0, "W")[0, 0] += 1.0
        changed.view(2, "b")[:] += 0.5
        expected = (1 + changed.view(2, "b").size) * 12
        assert sparse_nbytes(changed, reference) == expected

    def test_sparse_all_zero_layers_cost_nothing_without_reference(self):
        weights = WeightStore.from_layers(
            [{"W": np.zeros((3, 3)), "b": np.zeros(3)},
             {"W": np.array([[1.0, 0.0]])}])
        assert sparse_nbytes(weights) == 1 * 12

    def test_sparse_identical_delta_is_free(self, tiny_model):
        store = tiny_model.get_store()
        assert sparse_nbytes(store, store.copy()) == 0


class TestTrafficMeter:
    def test_records_exchange(self):
        meter = TrafficMeter(NetworkModel(
            uplink=LinkSpec(0.0, 1000), downlink=LinkSpec(0.0, 2000)))
        record = meter.record_exchange(0, 3, download_bytes=2000,
                                       upload_bytes=1000)
        assert record.download_seconds == pytest.approx(1.0)
        assert record.upload_seconds == pytest.approx(1.0)
        assert meter.report.records == [record]


class TestSimulationTraffic:
    @pytest.fixture
    def sim_factory(self, rng, tiny_model_factory):
        data = synthetic_tabular(rng, 300, 20, 4, noise=0.25)
        split = split_for_membership(data, rng)

        def build(defense=None):
            return FederatedSimulation(
                split, tiny_model_factory,
                FLConfig(num_clients=3, rounds=2, local_epochs=1,
                         batch_size=32, seed=0), defense)
        return build

    def test_traffic_recorded_per_client_per_round(self, sim_factory):
        sim = sim_factory()
        sim.run()
        assert len(sim.traffic_meter.report.records) == 6  # 3 x 2

    def test_download_matches_model_size(self, sim_factory):
        sim = sim_factory()
        sim.run()
        model_bytes = dense_nbytes(sim.server.global_weights)
        for record in sim.traffic_meter.report.records:
            assert record.download_bytes == model_bytes

    def test_gc_uploads_less_than_dense(self, sim_factory):
        from repro.privacy.defenses.compression import GradientCompression
        dense_sim = sim_factory()
        dense_sim.run()
        gc_sim = sim_factory(GradientCompression(keep_ratio=0.05))
        gc_sim.run()
        def uploaded(sim):
            records = sim.traffic_meter.report.records
            return sum(r.upload_bytes for r in records)
        assert uploaded(gc_sim) < uploaded(dense_sim) / 2

    def test_network_seconds_positive(self, sim_factory):
        sim = sim_factory()
        sim.run()
        assert sum(r.download_seconds + r.upload_seconds
                   for r in sim.traffic_meter.report.records) > 0
