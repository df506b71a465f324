"""Unit tests for the five baseline defenses and their helpers."""

import numpy as np
import pytest

from repro.fl.config import FLConfig
from repro.privacy.defenses import make_defense
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.cdp import CentralDP
from repro.privacy.defenses.compression import GradientCompression
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
        assert defense.on_send_update(0, template, 10, rng) is template
        assert defense.on_aggregate(template, rng) is template
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
        defense.on_round_start(0, [0], template, rng)
        sent = defense.on_send_update(0, template, 10, rng)
        # update == round global, so sent - global is pure noise
        delta = sent - template
        values = delta.buffer
        assert 0.05 < values.std() < 0.2

    def test_requires_round_start(self, template, rng):
        with pytest.raises(RuntimeError):
            WeakDP().on_send_update(0, template, 10, rng)

    def test_delta_norm_bounded(self, template, rng):
        defense = WeakDP(norm_bound=0.5, sigma=0.0)
        defense.on_round_start(0, [0], template, rng)
        far = _shifted(template, 10.0)
        sent = defense.on_send_update(0, far, 10, rng)
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

    def test_counts_releases(self, template, rng):
        defense = LocalDP(noise_multiplier=1.0)
        defense.on_send_update(0, template, 10, rng)
        defense.on_send_update(1, template, 10, rng)
        assert defense.updates_released == 2

    def test_state_bytes_after_optimizer(self, tiny_model):
        defense = LocalDP(noise_multiplier=1.0)
        defense.make_optimizer(tiny_model, 0.1)
        assert defense.state_bytes() > 0


class TestCentralDP:
    def _run_round(self, defense, template, rng):
        defense.on_round_start(0, [0, 1], template, rng)
        sent = defense.on_send_update(0, template, 10, rng)
        return defense.on_aggregate(sent, rng)

    def test_adds_noise_on_aggregate(self, template, rng):
        defense = CentralDP(noise_multiplier=1.0, num_clients=2)
        out = self._run_round(defense, template, rng)
        assert not out.allclose(template)

    def test_noise_scales_inversely_with_cohort(self, template, rng):
        small = CentralDP(noise_multiplier=1.0, num_clients=2)
        large = CentralDP(noise_multiplier=1.0, num_clients=100)
        out_small = self._run_round(small, template,
                                    np.random.default_rng(0))
        out_large = self._run_round(large, template,
                                    np.random.default_rng(0))
        def noise(out):
            return (out - template).l2()
        assert noise(out_small) > noise(out_large)

    def test_accountant_spends(self, template, rng):
        defense = CentralDP(noise_multiplier=1.0, rounds=4)
        self._run_round(defense, template, rng)
        assert defense.accountant.spent_epsilon > 0

    def test_requires_round_start(self, template, rng):
        with pytest.raises(RuntimeError):
            CentralDP().on_aggregate(template, rng)


class TestGradientCompression:
    def test_sparsifies_delta(self, template, rng):
        defense = GradientCompression(keep_ratio=0.1)
        defense.on_round_start(0, [0], template, rng)
        update = _shifted(template, rng.standard_normal(template.num_params))
        sent = defense.on_send_update(0, update, 10, rng)
        delta = (sent - template).buffer
        nonzero = np.count_nonzero(delta)
        assert nonzero <= int(0.1 * delta.size) + 1

    def test_keeps_largest_coordinates(self, template, rng):
        defense = GradientCompression(keep_ratio=0.01)
        defense.on_round_start(0, [0], template, rng)
        update = template.copy()
        update.view(0, "W")[0, 0] += 100.0  # dominant coordinate
        sent = defense.on_send_update(0, update, 10, rng)
        assert np.isclose(sent.view(0, "W")[0, 0], update.view(0, "W")[0, 0])

    def test_error_feedback_accumulates(self, template, rng):
        """Coordinates dropped in round 1 are carried into round 2."""
        defense = GradientCompression(keep_ratio=0.01)
        defense.on_round_start(0, [0], template, rng)
        update = _shifted(template, 0.01)
        defense.on_send_update(0, update, 10, rng)
        assert defense.state_bytes() > 0
        residual = defense._residuals[0]
        assert np.abs(residual).sum() > 0

    def test_full_keep_is_lossless(self, template, rng):
        defense = GradientCompression(keep_ratio=1.0)
        defense.on_round_start(0, [0], template, rng)
        update = _shifted(template, rng.standard_normal(template.num_params))
        sent = defense.on_send_update(0, update, 10, rng)
        assert sent.allclose(update, atol=1e-12)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            GradientCompression(keep_ratio=0.0)

    def test_requires_round_start(self, template, rng):
        with pytest.raises(RuntimeError):
            GradientCompression().on_send_update(0, template, 10, rng)


class TestSecureAggregation:
    def test_masks_cancel_in_sum(self, template, rng):
        defense = SecureAggregation()
        cohort = [0, 1, 2]
        defense.on_round_start(0, cohort, template, rng)
        masked = [defense.on_send_update(c, template, 10, rng)
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
        sent = defense.on_send_update(0, template, 10, rng)
        assert sent.l2() > 10 * template.l2()

    def test_is_pre_weighted(self):
        assert SecureAggregation.pre_weighted is True

    def test_requires_round_start(self, template, rng):
        with pytest.raises(RuntimeError):
            SecureAggregation().on_send_update(0, template, 10, rng)

    def test_single_client_has_zero_mask(self, template, rng):
        defense = SecureAggregation()
        defense.on_round_start(0, [0], template, rng)
        sent = defense.on_send_update(0, template, 1, rng)
        assert sent.allclose(template)

    def test_state_bytes_nonzero_with_cohort(self, template, rng):
        defense = SecureAggregation()
        defense.on_round_start(0, [0, 1], template, rng)
        assert defense.state_bytes() > 0


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
        assert defense.num_clients == 7
        assert defense.rounds == 9

    def test_config_aware_ldp_steps(self):
        config = FLConfig(rounds=10, local_epochs=4)
        defense = make_defense_for_config("ldp", config)
        assert defense.noise_multiplier > 0

    def test_describe_strings(self):
        for name in ("none", "ldp", "cdp", "wdp", "gc", "sa", "dinar"):
            assert isinstance(make_defense(name).describe(), str)
