"""Obfuscation-aware robust distances (``distance_mask``).

DINAR replaces its private layer with pure noise, which dominates
whole-vector distances and lets byzantine clients hide behind the
obfuscation floor.  Masking the protected segment out of the
clustering distance de-camouflages them.  These tests pin the config
plumbing, the masked distance math (bitwise no-op for an all-True
mask), the camouflage counter-example, and the end-to-end filter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.aggregation import (
    _cluster_distances,
    clustered_mean,
)
from repro.fl.config import FLConfig
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.store import Layout, WeightStore
from repro.privacy.defenses import make_defense
from repro.privacy.defenses.base import Defense


def _rows(matrix: np.ndarray) -> list[WeightStore]:
    layout = Layout.from_layers([{"W": matrix[0]}])
    return [WeightStore(layout, row.copy()) for row in matrix]


# ----------------------------------------------------------------------
# config + server plumbing
# ----------------------------------------------------------------------

class TestPlumbing:
    def test_config_rejects_unknown_mask(self):
        with pytest.raises(ValueError, match="distance_mask"):
            FLConfig(distance_mask="bogus", aggregator="clustered")

    def test_config_requires_clustered(self):
        with pytest.raises(ValueError, match="clustered"):
            FLConfig(distance_mask="obfuscated", aggregator="fedavg")

    def test_server_requires_protected_indices(self, tiny_model, rng):
        config = FLConfig(aggregator="clustered",
                          distance_mask="obfuscated")
        with pytest.raises(ValueError, match="protected_indices"):
            FLServer(tiny_model.weights, config, Defense(), rng)

    def test_mask_excludes_protected_full_ranges(self, tiny_model, rng):
        config = FLConfig(aggregator="clustered",
                          distance_mask="obfuscated")
        defense = make_defense("dinar")  # protects layer -2
        server = FLServer(tiny_model.weights, config, defense, rng)
        include = server._mask_include()
        layout = tiny_model.weight_layout()
        protected = defense.protected_indices(layout.num_layers)
        hidden = sum(
            layout.layer_slice(i).stop - layout.layer_slice(i).start
            for i in protected)
        assert include.shape == (layout.num_params,)
        assert include.sum() == layout.num_params - hidden
        for i in protected:
            assert not include[layout.layer_slice(i)].any()
        # Cached: pure function of layout + defense.
        assert server._mask_include() is include

    def test_mask_none_is_none(self, tiny_model, rng):
        config = FLConfig(aggregator="clustered")
        server = FLServer(tiny_model.weights, config, Defense(), rng)
        assert server._mask_include() is None


# ----------------------------------------------------------------------
# masked distance math
# ----------------------------------------------------------------------

class TestMaskedDistances:
    def test_all_true_mask_is_bitwise_noop(self, rng):
        matrix = rng.standard_normal((6, 2048))
        include = np.ones(2048, dtype=bool)
        np.testing.assert_array_equal(
            _cluster_distances(matrix, include),
            _cluster_distances(matrix))

    def test_masked_coordinates_are_ignored(self, rng):
        matrix = rng.standard_normal((6, 100))
        include = np.zeros(100, dtype=bool)
        include[:60] = True
        noisy = matrix.copy()
        noisy[:, 60:] = rng.standard_normal((6, 40)) * 1e6
        np.testing.assert_array_equal(
            _cluster_distances(matrix, include),
            _cluster_distances(noisy, include))

    def test_clustered_mean_validates_mask_shape(self, rng):
        matrix = rng.standard_normal((4, 10))
        with pytest.raises(ValueError, match="distance_include"):
            clustered_mean(_rows(matrix),
                           distance_include=np.ones(7, dtype=bool))

    def test_camouflaged_byzantine_row(self, rng):
        """The DINAR-looks-byzantine counter-example in miniature.

        Coordinates [40:80] model an obfuscated layer: every client
        ships large random noise there (so whole-vector distances are
        all huge and indistinguishable).  One client is additionally
        byzantine on the honest block [0:40].  Unmasked clustering
        keeps everyone; masking the obfuscated block out of the
        distance filters exactly the byzantine row.
        """
        honest = rng.standard_normal((6, 80)) * 0.01
        honest[:, 40:] = rng.standard_normal((6, 40)) * 50.0
        matrix = honest.copy()
        matrix[2, :40] = 5.0  # byzantine only where it matters
        include = np.zeros(80, dtype=bool)
        include[:40] = True

        unmasked: dict = {}
        clustered_mean(_rows(matrix), diagnostics=unmasked)
        masked: dict = {}
        clustered_mean(_rows(matrix), diagnostics=masked,
                       distance_include=include)

        assert 2 not in unmasked["filtered"]  # hidden by the noise floor
        assert masked["filtered"] == [2]


# ----------------------------------------------------------------------
# end-to-end: dinar x clustered x byzantine
# ----------------------------------------------------------------------

@pytest.fixture
def small_split(rng):
    ds = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
    return split_for_membership(ds, rng)


def _run(small_split, tiny_model_factory, distance_mask):
    config = FLConfig(num_clients=8, rounds=2, local_epochs=1, lr=0.1,
                      batch_size=32, seed=5, aggregator="clustered",
                      distance_mask=distance_mask,
                      adversary="byzantine", adversary_fraction=0.25)
    sim = FederatedSimulation(small_split, tiny_model_factory, config,
                              make_defense("dinar"))
    history = sim.run()
    return sim, history


class TestEndToEnd:
    def test_mask_decamouflages_byzantine_clients(
            self, small_split, tiny_model_factory):
        sim, history = _run(small_split, tiny_model_factory,
                            "obfuscated")
        adversaries = sorted(sim.behavior.adversaries)
        assert len(adversaries) == 2  # 25% of 8
        for record in history.records:
            assert set(record.adversaries) <= set(record.filtered)

    def test_unmasked_distance_is_blind_under_dinar(
            self, small_split, tiny_model_factory):
        """The failure mode that motivates the mask: whole-vector
        distances see only the obfuscation noise, so the filter
        catches no true adversary."""
        sim, history = _run(small_split, tiny_model_factory, "none")
        caught = set()
        for record in history.records:
            caught |= set(record.adversaries) & set(record.filtered)
        assert not caught
