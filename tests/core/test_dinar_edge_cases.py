"""DINAR edge cases and obfuscation-mode behaviour."""

import numpy as np
import pytest

from repro.core.dinar import DINAR


@pytest.fixture
def template(tiny_model):
    return tiny_model.get_store()


def test_rejects_unknown_obfuscation_mode():
    with pytest.raises(ValueError):
        DINAR(obfuscation="xor")


def test_scaled_noise_matches_layer_magnitude(template, rng):
    defense = DINAR(private_layer=0, obfuscation="scaled",
                    obfuscation_scale=1.0)
    sent = defense.on_send_update(0, template, template, 10, rng)
    real_std = template.view(0, "W").std()
    noise_std = sent.view(0, "W").std()
    assert 0.5 * real_std < noise_std < 2.0 * real_std


def test_scaled_noise_floors_zero_arrays(template, rng):
    """An all-zero bias still receives non-degenerate noise."""
    defense = DINAR(private_layer=0, obfuscation="scaled")
    assert np.all(template.view(0, "b") == 0.0)  # fresh Dense bias
    sent = defense.on_send_update(0, template, template, 10, rng)
    assert sent.view(0, "b").std() > 0.0


def test_gaussian_noise_uses_fixed_scale(template, rng):
    defense = DINAR(private_layer=0, obfuscation="gaussian",
                    obfuscation_scale=5.0)
    sent = defense.on_send_update(0, template, template, 10, rng)
    assert 3.0 < sent.view(0, "W").std() < 7.0


def test_no_personalize_mode_keeps_global(template, rng):
    defense = DINAR(private_layer=0, personalize=False)
    state = np.empty(defense.state_width(template.layout))
    defense.on_send_update(0, template, template, 10, rng, state)
    garbage = template.zeros_like()
    garbage.buffer[:] = 9.0
    received = defense.on_receive_global(0, garbage, state)
    assert np.all(received.view(0, "W") == 9.0)  # nothing restored


def test_describe_mentions_extras():
    text = DINAR(private_layer=1, extra_layers=(2,)).describe()
    assert "extra" in text


def test_repeated_rounds_update_stored_layer(template, rng):
    defense = DINAR(private_layer=0)
    state = np.empty(defense.state_width(template.layout))
    defense.on_send_update(0, template, template, 10, rng, state)
    newer = template.copy()
    newer.buffer += 1.0
    defense.on_send_update(0, newer, newer, 10, rng, state)
    restored = defense.on_receive_global(0, template, state)
    assert np.array_equal(restored.view(0, "W"), newer.view(0, "W"))
