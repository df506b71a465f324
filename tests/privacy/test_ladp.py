"""Layer-wise adaptive DP (LaDP): shares, plan math, mechanism, and
end-to-end determinism.

The plan — per-layer (epsilon, clip, sigma) — must be a pure function
of the layout so parent and workers re-derive it identically from the
received global model; the mechanism itself is per-layer clip+noise
over each layer's trainable entry slices.  Two sha256 digests pin the
whole mechanism's bits on a tiny federated run, with and without a
batch-norm layer.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.nn.activations import Tanh
from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.model import Model
from repro.nn.store import WeightStore, chunked_sq_sum
from repro.privacy.defenses.accounting import gaussian_sigma
from repro.privacy.defenses.ladp import LayerwiseDP, allocate_shares
from repro.privacy.defenses.make import make_defense_for_config
from tests.fl.trajectory_recipes import simulation_trajectory

HAS_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()


# ----------------------------------------------------------------------
# share allocation
# ----------------------------------------------------------------------

class TestAllocateShares:
    def test_sums_to_one_and_respects_floor(self):
        shares = allocate_shares([0.1, 0.4, 0.0, 0.2], floor=0.2)
        assert shares.sum() == pytest.approx(1.0)
        # Every layer keeps at least floor/J, even at zero divergence.
        assert np.all(shares >= 0.2 / 4 - 1e-12)

    def test_monotone_in_divergence(self):
        shares = allocate_shares([0.1, 0.3, 0.2])
        assert shares[1] > shares[2] > shares[0]

    def test_all_zero_degrades_to_uniform(self):
        np.testing.assert_allclose(allocate_shares([0.0, 0.0, 0.0]),
                                   np.full(3, 1 / 3))

    def test_floor_one_is_uniform(self):
        np.testing.assert_allclose(allocate_shares([5.0, 1.0], floor=1.0),
                                   np.full(2, 0.5))

    def test_validation(self):
        with pytest.raises(ValueError, match="floor"):
            allocate_shares([1.0], floor=1.5)
        with pytest.raises(ValueError, match="non-empty"):
            allocate_shares([])
        with pytest.raises(ValueError, match="non-negative"):
            allocate_shares([0.2, -0.1])


# ----------------------------------------------------------------------
# constructor + plan math
# ----------------------------------------------------------------------

class TestPlan:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            LayerwiseDP(epsilon=0.0)
        with pytest.raises(ValueError, match="delta"):
            LayerwiseDP(delta=1.5)
        with pytest.raises(ValueError, match="clip_norm"):
            LayerwiseDP(clip_norm=-1.0)
        with pytest.raises(ValueError, match="rounds"):
            LayerwiseDP(rounds=0)
        with pytest.raises(ValueError, match="positive"):
            LayerwiseDP(shares=[0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="sum to 1"):
            LayerwiseDP(shares=[0.5, 0.2])

    def test_plan_splits_round_budget(self, tiny_model):
        defense = LayerwiseDP(epsilon=2.2, delta=1e-5, clip_norm=3.0,
                              rounds=4)
        defense.on_round_start(0, [0], tiny_model.weights,
                               np.random.default_rng(0))
        plan = defense.segment_report()
        j = len(plan)
        assert j == tiny_model.weight_layout().num_layers
        eps_round = 2.2 / math.sqrt(4)
        assert sum(e["epsilon"] for e in plan) \
            == pytest.approx(eps_round)
        for entry in plan:
            assert entry["clip"] == pytest.approx(3.0 / math.sqrt(j))
            assert entry["sigma"] == pytest.approx(gaussian_sigma(
                entry["epsilon"], 1e-5 / j, entry["clip"]))

    def test_sensitive_layer_gets_less_noise(self, tiny_model):
        defense = LayerwiseDP(divergences=[0.05, 0.5, 0.1])
        defense.on_round_start(0, [0], tiny_model.weights,
                               np.random.default_rng(0))
        plan = defense.segment_report()
        assert plan[1]["share"] > plan[0]["share"]
        assert plan[1]["sigma"] < plan[0]["sigma"]

    def test_share_count_must_match_layers(self, tiny_model):
        defense = LayerwiseDP(divergences=[0.5, 0.5])
        with pytest.raises(ValueError, match="3 layers"):
            defense.on_round_start(0, [0], tiny_model.weights,
                                   np.random.default_rng(0))

    def test_buffer_layer_share_respreads(self, rng):
        """A buffer-only release slot is impossible; its budget share
        re-spreads so the per-round epsilon spend is unchanged."""
        model = Model([Dense(6, 5, rng), BatchNorm1d(5), Tanh(),
                       Dense(5, 3, rng)], name="bn")
        defense = LayerwiseDP(epsilon=1.0, rounds=1)
        defense.on_round_start(0, [0], model.weights,
                               np.random.default_rng(0))
        plan = defense.segment_report()
        layout = model.weights.layout
        assert [e["segment"] for e in plan] == [
            i for i in range(layout.num_layers)
            if layout.layer_param_slices(i)]
        assert sum(e["epsilon"] for e in plan) == pytest.approx(1.0)

    def test_accountant_spends_per_round(self, tiny_model):
        defense = LayerwiseDP(epsilon=2.0, delta=1e-5, rounds=4)
        for r in range(4):
            defense.on_round_start(r, [0], tiny_model.weights,
                                   np.random.default_rng(r))
        assert defense.accountant.releases == 4
        assert defense.accountant.spent_epsilon \
            == pytest.approx(4 * 2.0 / math.sqrt(4))

    def test_describe_names_share_source(self):
        assert "shares=uniform" in LayerwiseDP().describe()
        assert "shares=sensitivity" in \
            LayerwiseDP(divergences=[1.0, 2.0]).describe()
        assert "shares=explicit" in \
            LayerwiseDP(shares=[0.3, 0.7]).describe()


# ----------------------------------------------------------------------
# mechanism
# ----------------------------------------------------------------------

class TestMechanism:
    def test_clips_each_segment(self, tiny_model):
        """With sigma effectively irrelevant (huge epsilon → tiny
        noise), every released segment delta lands within its clip."""
        defense = LayerwiseDP(epsilon=1e9, clip_norm=0.01, rounds=1)
        global_w = tiny_model.weights
        defense.on_round_start(0, [0], global_w,
                               np.random.default_rng(0))
        # Large uniform drift touching every coordinate.
        update = WeightStore(global_w.layout, global_w.buffer + 5.0)
        released = defense.on_send_update(
            0, update, global_w, 10, np.random.default_rng(1))
        delta = released - global_w
        clip_j = 0.01 / math.sqrt(len(defense.segment_report()))
        for entry in defense.segment_report():
            slices = delta.layout.layer_param_slices(entry["segment"])
            norm = math.sqrt(chunked_sq_sum(delta.buffer, slices))
            assert norm <= clip_j * (1 + 1e-6)

    def test_small_delta_not_scaled(self, tiny_model):
        defense = LayerwiseDP(epsilon=1e12, clip_norm=10.0, rounds=1)
        global_w = tiny_model.weights
        defense.on_round_start(0, [0], global_w,
                               np.random.default_rng(0))
        update = WeightStore(global_w.layout,
                             global_w.buffer + 1e-3)
        released = defense.on_send_update(
            0, update, global_w, 10, np.random.default_rng(1))
        # Inside the clip: only the (negligible) noise separates the
        # release from the honest update.
        np.testing.assert_allclose(released.buffer, update.buffer,
                                   atol=1e-8)

    def test_deterministic_given_rng(self, tiny_model):
        outs = []
        for _ in range(2):
            defense = LayerwiseDP(epsilon=2.2, rounds=2)
            defense.on_round_start(0, [0], tiny_model.weights,
                                   np.random.default_rng(7))
            update = WeightStore(tiny_model.weights.layout,
                                 tiny_model.weights.buffer + 0.5)
            outs.append(defense.on_send_update(
                0, update, tiny_model.weights, 10,
                np.random.default_rng(13)).buffer)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_make_defense_wires_rounds(self):
        config = FLConfig(rounds=9)
        defense = make_defense_for_config("ladp", config, epsilon=1.5)
        assert isinstance(defense, LayerwiseDP)
        assert defense.rounds == 9
        assert defense.epsilon == 1.5


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------

@pytest.fixture
def small_split(rng):
    ds = synthetic_tabular(rng, 400, 20, 4, noise=0.2)
    return split_for_membership(ds, rng)


def _run(small_split, tiny_model_factory, **cfg_kwargs):
    defaults = dict(num_clients=4, rounds=2, local_epochs=1, lr=0.1,
                    batch_size=32, seed=5)
    defaults.update(cfg_kwargs)
    config = FLConfig(**defaults)
    sim = FederatedSimulation(
        small_split, tiny_model_factory, config,
        make_defense_for_config("ladp", config, epsilon=4.0))
    history = sim.run()
    return sim, history


class TestEndToEnd:
    def test_simulation_records_segment_budget(self, small_split,
                                               tiny_model_factory):
        sim, history = _run(small_split, tiny_model_factory)
        budget = sim.cost_meter.report.segment_budget
        assert len(budget) == 3  # tiny model: 3 trainable layers
        assert {row["name"] for row in budget} \
            == {"layer0", "layer1", "layer2"}
        summary = sim.cost_meter.report.segment_budget_summary()
        assert "eps=" in summary and "sigma=" in summary
        assert history.records

    @pytest.mark.skipif(not HAS_FORK,
                        reason="parallel executor requires fork")
    def test_serial_parallel_bitwise(self, small_split,
                                     tiny_model_factory):
        serial, _ = _run(small_split, tiny_model_factory, workers=0)
        parallel, _ = _run(small_split, tiny_model_factory, workers=2)
        np.testing.assert_array_equal(
            serial.server.global_weights.buffer,
            parallel.server.global_weights.buffer)
        assert serial.last_updates.keys() == parallel.last_updates.keys()
        for cid in serial.last_updates:
            np.testing.assert_array_equal(
                serial.last_updates[cid].buffer,
                parallel.last_updates[cid].buffer)


#: sha256 of ``simulation_trajectory("ladp", batchnorm=...)``: the final
#: global and personalized weights of a 3-client, 2-round LaDP run.
LADP_DIGESTS = {
    False: "b3d02c16e9cb0541f1d4ebb684ec24ff715d0ae05ebcbee01b4eedc633781864",
    True: "bce0c3c850970cd1d6b738449105286ffbff244f64bdeb0e065ccba5549b5d5e",
}


@pytest.mark.parametrize("batchnorm", [False, True])
def test_ladp_trajectory_is_pinned(batchnorm):
    vector = simulation_trajectory("ladp", batchnorm=batchnorm)
    digest = hashlib.sha256(np.ascontiguousarray(vector).tobytes())
    assert digest.hexdigest() == LADP_DIGESTS[batchnorm]
