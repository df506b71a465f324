"""Wire encodings and the simulation's traffic accounting."""

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.network import dense_nbytes, sparse_nbytes
from repro.fl.simulation import FederatedSimulation
from tests.conftest import store_of


class TestEncodings:
    def test_dense_counts_all_arrays(self, tiny_model):
        weights = tiny_model.get_store()
        expected = sum(e.size for e in weights.layout.entries) * 8
        assert dense_nbytes(weights) == expected

    def test_sparse_counts_nonzero(self):
        weights = store_of(
            [{"W": np.array([[0.0, 1.0], [0.0, 2.0]])}])
        assert sparse_nbytes(weights) == 2 * 12  # 2 coords x (8+4)

    def test_sparse_against_reference(self):
        ref = store_of([{"W": np.ones((2, 2))}])
        changed = store_of(
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
        weights = store_of(
            [{"W": np.zeros((3, 3)), "b": np.zeros(3)},
             {"W": np.array([[1.0, 0.0]])}])
        assert sparse_nbytes(weights) == 1 * 12

    def test_sparse_identical_delta_is_free(self, tiny_model):
        store = tiny_model.get_store()
        assert sparse_nbytes(store, store.copy()) == 0


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
        report = sim.cost_meter.report
        model_bytes = dense_nbytes(sim.server.global_weights)
        # 3 clients x 2 rounds, each downloading and (undefended)
        # uploading the dense model
        assert report.download_bytes == 6 * model_bytes
        assert report.upload_bytes == 6 * model_bytes

    def test_download_matches_model_size(self, sim_factory):
        sim = sim_factory()
        downloads = []
        record = sim.cost_meter.record_traffic

        def spy(*, download, upload):
            downloads.append(download)
            record(download=download, upload=upload)
        sim.cost_meter.record_traffic = spy
        sim.run()
        model_bytes = dense_nbytes(sim.server.global_weights)
        assert len(downloads) == 6  # 3 clients x 2 rounds
        assert all(d == model_bytes for d in downloads)

    def test_gc_uploads_less_than_dense(self, sim_factory):
        from repro.privacy.defenses.compression import GradientCompression
        dense_sim = sim_factory()
        dense_sim.run()
        gc_sim = sim_factory(GradientCompression(keep_ratio=0.05))
        gc_sim.run()
        dense = dense_sim.cost_meter.report
        gc = gc_sim.cost_meter.report
        assert gc.download_bytes == dense.download_bytes
        assert gc.upload_bytes < dense.upload_bytes / 2
