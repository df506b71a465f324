"""DP accounting tests."""

import numpy as np
import pytest

from repro.privacy.defenses.accounting import (
    PrivacyAccountant,
    advanced_composition,
    basic_composition,
    gaussian_sigma,
)
from repro.privacy.defenses.dpsgd import dp_sgd_noise_multiplier


class TestGaussianSigma:
    def test_decreases_with_epsilon(self):
        assert gaussian_sigma(0.1, 1e-5) > gaussian_sigma(1.0, 1e-5)

    def test_scales_with_sensitivity(self):
        assert np.isclose(gaussian_sigma(1.0, 1e-5, sensitivity=2.0),
                          2.0 * gaussian_sigma(1.0, 1e-5))

    def test_classic_value(self):
        # sigma = sqrt(2 ln(1.25/delta)) / eps
        expected = np.sqrt(2 * np.log(1.25 / 1e-5)) / 2.2
        assert np.isclose(gaussian_sigma(2.2, 1e-5), expected)

    @pytest.mark.parametrize("eps,delta", [(0, 1e-5), (-1, 1e-5),
                                           (1, 0.0), (1, 1.0)])
    def test_rejects_bad_budget(self, eps, delta):
        with pytest.raises(ValueError):
            gaussian_sigma(eps, delta)


class TestComposition:
    def test_basic_is_linear(self):
        eps, delta = basic_composition(0.1, 1e-6, 10)
        assert np.isclose(eps, 1.0)
        assert np.isclose(delta, 1e-5)

    def test_advanced_beats_basic_for_many_steps(self):
        basic_eps, _ = basic_composition(0.1, 1e-6, 1000)
        adv_eps, _ = advanced_composition(0.1, 1e-6, 1000,
                                          delta_slack=1e-6)
        assert adv_eps < basic_eps

    def test_advanced_adds_delta_slack(self):
        _, delta = advanced_composition(0.1, 1e-6, 10, delta_slack=1e-4)
        assert delta > 10 * 1e-6

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            basic_composition(0.1, 1e-6, 0)


class TestAccountant:
    def test_tracks_spend(self):
        accountant = PrivacyAccountant(1.0, 1e-5)
        accountant.spend(0.3, 1e-6)
        accountant.spend(0.3, 1e-6)
        assert np.isclose(accountant.spent_epsilon, 0.6)
        assert accountant.releases == 2
        assert not accountant.exhausted

    def test_exhaustion(self):
        accountant = PrivacyAccountant(0.5, 1e-5)
        accountant.spend(0.6, 0.0)
        assert accountant.exhausted


class TestDPSGDCalibration:
    def test_more_steps_need_more_noise(self):
        a = dp_sgd_noise_multiplier(1.0, 1e-5, sample_rate=0.1, steps=100)
        b = dp_sgd_noise_multiplier(1.0, 1e-5, sample_rate=0.1, steps=400)
        assert b > a
        assert np.isclose(b, 2 * a)  # sqrt scaling

    def test_tighter_budget_needs_more_noise(self):
        a = dp_sgd_noise_multiplier(2.0, 1e-5, sample_rate=0.1, steps=100)
        b = dp_sgd_noise_multiplier(0.5, 1e-5, sample_rate=0.1, steps=100)
        assert b > a

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dp_sgd_noise_multiplier(0, 1e-5, sample_rate=0.1, steps=10)
        with pytest.raises(ValueError):
            dp_sgd_noise_multiplier(1, 1e-5, sample_rate=0.0, steps=10)
        with pytest.raises(ValueError):
            dp_sgd_noise_multiplier(1, 1e-5, sample_rate=0.1, steps=0)
