"""Unit tests for the five baseline defenses and their helpers."""

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.nn.store import WeightStore
from repro.privacy.defenses import cdp, make_defense
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.cdp import CentralDP
from repro.privacy.defenses.compression import GradientCompression
from repro.privacy.defenses.ladp import LayerwiseDP
from repro.privacy.defenses.ldp import LocalDP, clip_store
from repro.privacy.defenses.make import make_defense_for_config
from repro.privacy.defenses.secure_aggregation import SecureAggregation
from repro.privacy.defenses.wdp import WeakDP


@pytest.fixture
def template(tiny_model):
    return tiny_model.get_store()


def _shifted(template, offset):
    """A copy of ``template`` with ``offset`` added to every coordinate."""
    out = template.copy()
    out.buffer += offset
    return out


class TestBaseDefense:
    def test_noop_passthrough(self, template, rng):
        defense = Defense()
        assert defense.on_receive_global(0, template) is template
        assert defense.on_send_update(0, template, template, 10,
                                      rng) is template
        assert defense.on_aggregate(template, template, rng) is template
        assert defense.make_optimizer(None, 0.1) is None
        assert defense.state_bytes() == 0


class TestClipWeights:
    def test_noop_below_bound(self, template):
        clipped = clip_store(template, 1e9)
        assert clipped.allclose(template)

    def test_clips_to_bound(self, template):
        clipped = clip_store(template, 0.5)
        assert np.isclose(clipped.l2(), 0.5)

    def test_preserves_direction(self, template):
        clipped = clip_store(template, 0.5)
        a = template.buffer
        b = clipped.buffer
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert np.isclose(cos, 1.0)

    def test_rejects_bad_bound(self, template):
        with pytest.raises(ValueError):
            clip_store(template, 0.0)


class TestWeakDP:
    def test_noise_added_to_delta(self, template, rng):
        defense = WeakDP(sigma=0.1)
        sent = defense.on_send_update(0, template, template, 10, rng)
        # update == round global, so sent - global is pure noise
        delta = sent - template
        values = delta.buffer
        assert 0.05 < values.std() < 0.2

    def test_delta_norm_bounded(self, template, rng):
        defense = WeakDP(norm_bound=0.5, sigma=0.0)
        far = _shifted(template, 10.0)
        sent = defense.on_send_update(0, far, template, 10, rng)
        delta = sent - template
        assert delta.l2() <= 0.5 + 1e-9

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            WeakDP(sigma=-1.0)
        with pytest.raises(ValueError):
            WeakDP(norm_bound=0.0)


class TestLocalDP:
    def test_imposes_dpsgd_optimizer(self, tiny_model):
        from repro.privacy.defenses.dpsgd import DPSGD
        defense = LocalDP(noise_multiplier=1.0)
        optimizer = defense.make_optimizer(tiny_model, 0.1)
        assert isinstance(optimizer, DPSGD)

    def test_noise_multiplier_from_budget(self):
        tight = LocalDP(epsilon=0.1, sample_rate=0.1, steps=100)
        loose = LocalDP(epsilon=10.0, sample_rate=0.1, steps=100)
        assert tight.noise_multiplier > loose.noise_multiplier

    @pytest.mark.parametrize("name,shape", [
        ("fcnn", (20,)), ("vgg", (3, 8, 8)), ("resnet", (3, 8, 8)),
        ("audio", (1, 64))])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_state_bytes_from_round_layout(self, name, shape, dtype, rng):
        """The noise buffers are sized from the round's layout, as the
        model's trainable parameters: batch-norm running statistics
        are not trained and get no noise buffer."""
        from repro.models.registry import build_model
        model = build_model(name, shape, 4, rng, dtype=dtype)
        defense = LocalDP(noise_multiplier=1.0)
        defense.on_round_start(0, [0], model.get_store(), rng)
        assert defense.state_bytes() == (
            2 * model.num_parameters() * model.dtype.itemsize)


class TestCentralDP:
    def _run_round(self, defense, template, rng, num_clients=2):
        defense.on_round_start(0, list(range(num_clients)), template, rng)
        sent = defense.on_send_update(0, template, template, 10, rng)
        return defense.on_aggregate(sent, template, rng)

    def test_adds_noise_on_aggregate(self, template, rng):
        defense = CentralDP(noise_multiplier=1.0)
        out = self._run_round(defense, template, rng)
        assert not out.allclose(template)

    def test_noise_scales_inversely_with_cohort(self, template, rng):
        small = CentralDP(noise_multiplier=1.0)
        large = CentralDP(noise_multiplier=1.0)
        out_small = self._run_round(small, template,
                                    np.random.default_rng(0), 2)
        out_large = self._run_round(large, template,
                                    np.random.default_rng(0), 100)
        def noise(out):
            return (out - template).l2()
        assert noise(out_small) > noise(out_large)

    def test_accountant_spends(self, template, rng):
        defense = CentralDP(noise_multiplier=1.0, rounds=4)
        self._run_round(defense, template, rng)
        assert defense.accountant.spent_epsilon > 0

    def test_noise_scales_with_the_sampled_clients(self, tiny_model_factory,
                                                   monkeypatch):
        """With ``sample_fraction=0.5`` a 4-client fleet averages 2
        clients a round, so the noise std is ``z * C / 2``."""
        sigmas = []
        draw = cdp.gaussian
        monkeypatch.setattr(cdp, "gaussian", lambda rng, sigma, *rest: (
            sigmas.append(sigma) or draw(rng, sigma, *rest)))
        config = FLConfig(num_clients=4, sample_fraction=0.5, rounds=1,
                          local_epochs=1, batch_size=32, seed=0)
        data = synthetic_tabular(np.random.default_rng(0), 300, 20, 4)
        sim = FederatedSimulation(
            split_for_membership(data, np.random.default_rng(1)),
            tiny_model_factory, config,
            make_defense_for_config("cdp", config))
        sim.run_round(0)
        defense = sim.defense
        assert sigmas == [defense.noise_multiplier * defense.clip_norm / 2]

    def test_aggregate_needs_round_start(self, template, rng):
        with pytest.raises(RuntimeError, match="on_round_start"):
            CentralDP().on_aggregate(template, template, rng)


class TestGradientCompression:
    def test_sparsifies_delta(self, template, rng):
        defense = GradientCompression(keep_ratio=0.1)
        update = _shifted(template, rng.standard_normal(template.num_params))
        sent = defense.on_send_update(0, update, template, 10, rng)
        delta = (sent - template).buffer
        nonzero = np.count_nonzero(delta)
        assert nonzero <= int(0.1 * delta.size) + 1

    def test_keeps_largest_coordinates(self, template, rng):
        defense = GradientCompression(keep_ratio=0.01)
        update = template.copy()
        update.view(0, "W")[0, 0] += 100.0  # dominant coordinate
        sent = defense.on_send_update(0, update, template, 10, rng)
        assert np.isclose(sent.view(0, "W")[0, 0], update.view(0, "W")[0, 0])

    def test_error_feedback_accumulates(self, template, rng):
        """Coordinates dropped in round 1 are carried into round 2."""
        defense = GradientCompression(keep_ratio=0.01)
        update = _shifted(template, 0.01)
        residual = np.empty(defense.state_width(template.layout))
        defense.init_state(residual, template)
        first = defense.on_send_update(0, update, template, 10, rng,
                                       residual)
        assert np.abs(residual).sum() > 0
        # the residual is what the sparse upload left out...
        np.testing.assert_allclose(
            (first - template).buffer + residual, (update - template).buffer)
        # ...and it rides on the next round's delta
        second = defense.on_send_update(0, template, template, 10, rng,
                                        residual.copy())
        assert np.count_nonzero((second - template).buffer) > 0

    def test_fresh_row_is_bitwise_stateless(self, template, rng):
        """A new client's row changes nothing: -0.0 is the additive
        identity, signed zeros included."""
        defense = GradientCompression(keep_ratio=0.1)
        residual = np.empty(defense.state_width(template.layout))
        defense.init_state(residual, template)
        delta = rng.standard_normal(template.num_params)
        delta[:2] = (-0.0, 0.0)
        assert (delta + residual).tobytes() == delta.tobytes()
        update = _shifted(template, delta)
        with_row = defense.on_send_update(
            0, update, template, 10, np.random.default_rng(0), residual)
        without = defense.on_send_update(
            0, update, template, 10, np.random.default_rng(0))
        assert with_row.buffer.tobytes() == without.buffer.tobytes()

    def test_full_keep_is_lossless(self, template, rng):
        defense = GradientCompression(keep_ratio=1.0)
        update = _shifted(template, rng.standard_normal(template.num_params))
        sent = defense.on_send_update(0, update, template, 10, rng)
        assert sent.allclose(update, atol=1e-12)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            GradientCompression(keep_ratio=0.0)


class TestSecureAggregation:
    def test_masks_cancel_in_sum(self, template, rng):
        defense = SecureAggregation()
        cohort = [0, 1, 2]
        defense.on_round_start(0, cohort, template, rng)
        masked = [defense.on_send_update(c, template, template, 10, rng)
                  for c in cohort]
        total = masked[0]
        for m in masked[1:]:
            total = total + m
        # each client sent 10 * weights + mask; masks sum to zero
        expected = template * 30.0
        assert total.allclose(expected, atol=1e-6)

    def test_individual_update_is_garbled(self, template, rng):
        defense = SecureAggregation(mask_scale=50.0)
        defense.on_round_start(0, [0, 1], template, rng)
        sent = defense.on_send_update(0, template, template, 10, rng)
        assert sent.l2() > 10 * template.l2()

    def test_is_pre_weighted(self):
        assert SecureAggregation.pre_weighted is True

    def test_requires_round_start(self, template, rng):
        with pytest.raises(RuntimeError):
            SecureAggregation().on_send_update(0, template, template, 10,
                                               rng)

    def test_single_client_has_zero_mask(self, template, rng):
        defense = SecureAggregation()
        defense.on_round_start(0, [0], template, rng)
        sent = defense.on_send_update(0, template, template, 1, rng)
        assert sent.allclose(template)

    def test_masks_match_the_pairwise_loop(self, template, rng):
        """Each client's derived mask has the bits of the loop over
        every pair of the sorted cohort, and nothing is stored."""
        from repro.nn.dtypes import standard_normal
        defense = SecureAggregation(mask_scale=7.0)
        cohort = [5, 2, 9, 4]
        defense.on_round_start(3, cohort, template, rng)
        n, dtype = template.num_params, template.layout.dtype
        masks = {cid: np.zeros(n, dtype=dtype) for cid in cohort}
        ids = sorted(cohort)
        for pos, i in enumerate(ids):
            for j in ids[pos + 1:]:
                pair = standard_normal(np.random.default_rng((3, i, j)),
                                       n, dtype)
                pair *= 7.0
                masks[i] += pair
                masks[j] -= pair
        for cid in cohort:
            mask = defense.client_mask(cid, n, dtype)
            assert mask.tobytes() == masks[cid].tobytes()
        assert defense.state_bytes() == 0


@pytest.mark.parametrize("make", [
    lambda: CentralDP(noise_multiplier=1.0),
    lambda: WeakDP(sigma=0.1),
    lambda: GradientCompression(keep_ratio=0.1),
    lambda: LayerwiseDP(epsilon=2.2, divergences=[0.1, 0.5, 0.2],
                        rounds=3),
], ids=["cdp", "wdp", "gc", "ladp"])
def test_fresh_instance_releases_parent_upload(make, template):
    """A forked worker's defense never ran ``on_round_start``: the
    received global model, a read-only hook argument, is all it needs
    to release the parent's upload bitwise."""
    parent, worker = make(), make()
    parent.on_round_start(0, [0], template, np.random.default_rng(1))
    received = WeightStore(template.layout, template.buffer.copy())
    received.buffer.flags.writeable = False
    update = _shifted(template, np.random.default_rng(2).standard_normal(
        template.num_params))
    sent = [defense.on_send_update(0, update, received, 10,
                                   np.random.default_rng(3))
            for defense in (parent, worker)]
    assert np.array_equal(sent[0].buffer, sent[1].buffer)
    if isinstance(parent, LayerwiseDP):
        assert worker.segment_report() == parent.segment_report()


class TestFactories:
    @pytest.mark.parametrize("name,cls_name", [
        ("none", "Defense"), ("ldp", "LocalDP"), ("cdp", "CentralDP"),
        ("wdp", "WeakDP"), ("gc", "GradientCompression"),
        ("sa", "SecureAggregation"), ("dinar", "DINAR"),
    ])
    def test_make_defense(self, name, cls_name):
        assert type(make_defense(name)).__name__ == cls_name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_defense("homomorphic")

    def test_config_aware_cdp(self):
        config = FLConfig(num_clients=7, rounds=9)
        defense = make_defense_for_config("cdp", config)
        assert defense.num_clients is None  # each round sets it
        assert defense.rounds == 9

    def test_config_aware_ldp_steps(self):
        config = FLConfig(rounds=10, local_epochs=4)
        defense = make_defense_for_config("ldp", config)
        assert defense.noise_multiplier > 0

    def test_describe_strings(self):
        for name in ("none", "ldp", "cdp", "wdp", "gc", "sa", "dinar"):
            assert isinstance(make_defense(name).describe(), str)
