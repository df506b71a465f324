"""DINAR defense tests — Algorithm 1 step by step."""

import numpy as np
import pytest

from repro.core.dinar import DINAR, dinar_initialization
from repro.data.synthetic import synthetic_tabular
from repro.nn.optim import Adagrad


@pytest.fixture
def template(tiny_model):
    return tiny_model.get_store()


def _filled(template, value):
    out = template.zeros_like()
    out.buffer[:] = value
    return out


class TestObfuscation:
    """Algorithm 1, lines 15-17."""

    def test_private_layer_replaced_with_random(self, template, rng):
        defense = DINAR(private_layer=-2)
        sent = defense.on_send_update(0, template, 10, rng)
        p = defense.protected_indices(template.layout.num_layers)[0]
        assert p == 1  # penultimate of 3 trainable layers
        assert not np.allclose(sent.view(p, "W"), template.view(p, "W"))

    def test_other_layers_untouched(self, template, rng):
        defense = DINAR(private_layer=-2)
        sent = defense.on_send_update(0, template, 10, rng)
        assert np.array_equal(sent.view(0, "W"), template.view(0, "W"))
        assert np.array_equal(sent.view(2, "W"), template.view(2, "W"))

    def test_raw_layer_stored_client_side(self, template, rng):
        defense = DINAR(private_layer=-2)
        defense.on_send_update(0, template, 10, rng)
        stored = defense._stored[0][1]
        assert np.array_equal(stored, template.layer_flat(1))

    def test_obfuscation_scale(self, template):
        small = DINAR(private_layer=0, obfuscation_scale=1e-6)
        sent = small.on_send_update(
            0, template, 10, np.random.default_rng(0))
        assert np.abs(sent.view(0, "W")).max() < 1e-3

    def test_per_client_isolation(self, template, rng):
        defense = DINAR(private_layer=0)
        defense.on_send_update(0, template, 10, rng)
        defense.on_send_update(1, template + _filled(template, 1.0),
                               10, rng)
        assert not np.array_equal(defense._stored[0][0],
                                  defense._stored[1][0])


class TestPersonalization:
    """Algorithm 1, lines 1-6."""

    def test_first_round_passthrough(self, template):
        defense = DINAR(private_layer=-2)
        received = defense.on_receive_global(0, template)
        assert received is template  # nothing stored yet

    def test_private_layer_restored(self, template, rng):
        defense = DINAR(private_layer=-2)
        defense.on_send_update(0, template, 10, rng)
        obfuscated_global = _filled(template, 9.0)
        received = defense.on_receive_global(0, obfuscated_global)
        assert np.array_equal(received.view(1, "W"), template.view(1, "W"))
        assert np.all(received.view(0, "W") == 9.0)  # global for other layers

    def test_clients_get_their_own_layer_back(self, template, rng):
        defense = DINAR(private_layer=0)
        other = template * 2
        defense.on_send_update(0, template, 10, rng)
        defense.on_send_update(1, other, 10, rng)
        r0 = defense.on_receive_global(0, template)
        r1 = defense.on_receive_global(1, template)
        assert np.array_equal(r0.view(0, "W"), template.view(0, "W"))
        assert np.array_equal(r1.view(0, "W"), other.view(0, "W"))


class TestAdaptiveTraining:
    """Algorithm 1, lines 7-14."""

    def test_default_optimizer_is_adagrad(self, tiny_model):
        optimizer = DINAR().make_optimizer(tiny_model, 0.1)
        assert isinstance(optimizer, Adagrad)

    def test_lr_override(self, tiny_model):
        optimizer = DINAR(lr=0.123).make_optimizer(tiny_model, 0.9)
        assert optimizer.lr == 0.123

    def test_lr_inherits_when_none(self, tiny_model):
        optimizer = DINAR(lr=None).make_optimizer(tiny_model, 0.9)
        assert optimizer.lr == 0.9

    def test_ablation_optimizers(self, tiny_model):
        for name in ("adam", "adamax", "adgd"):
            optimizer = DINAR(optimizer=name).make_optimizer(
                tiny_model, 0.1)
            assert type(optimizer).__name__.lower() == name


class TestMultiLayer:
    """The Fig. 5 multi-layer obfuscation mode."""

    def test_extra_layers_obfuscated(self, template, rng):
        defense = DINAR(private_layer=-2, extra_layers=(-1, 0))
        assert defense.protected_indices(3) == [0, 1, 2]
        sent = defense.on_send_update(0, template, 10, rng)
        for idx in range(3):
            assert not np.allclose(sent.view(idx, "W"),
                                   template.view(idx, "W"))

    def test_all_protected_layers_restored(self, template, rng):
        defense = DINAR(private_layer=0, extra_layers=(1,))
        defense.on_send_update(0, template, 10, rng)
        garbage = _filled(template, 5.0)
        received = defense.on_receive_global(0, garbage)
        assert np.array_equal(received.view(0, "W"), template.view(0, "W"))
        assert np.array_equal(received.view(1, "W"), template.view(1, "W"))
        assert np.all(received.view(2, "W") == 5.0)


class TestValidation:
    def test_out_of_range_layer_rejected_at_use(self, template, rng):
        defense = DINAR(private_layer=7)
        with pytest.raises(IndexError):
            defense.on_send_update(0, template, 10, rng)

    def test_negative_indices_resolve(self):
        defense = DINAR(private_layer=-1)
        assert defense.protected_indices(5) == [4]

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            DINAR(obfuscation_scale=0.0)

    def test_state_bytes_tracks_stored_layers(self, template, rng):
        defense = DINAR(private_layer=0)
        assert defense.state_bytes() == 0
        defense.on_send_update(0, template, 10, rng)
        assert defense.state_bytes() == template.layer_flat(0).nbytes


class TestInitialization:
    """§4.1 end to end: sensitivity + vote."""

    def test_initialization_returns_valid_layer(self, rng,
                                                tiny_model_factory):
        datasets = [
            synthetic_tabular(np.random.default_rng(i), 80, 20, 4,
                              noise=0.3)
            for i in range(3)
        ]
        result = dinar_initialization(
            tiny_model_factory, datasets, warmup_epochs=5, lr=0.1,
            batch_size=16, seed=0)
        assert 0 <= result.private_layer < 3
        assert len(result.per_client_sensitivity) == 3
        assert result.consensus.honest_agreement

    def test_initialization_with_byzantine_clients(self, rng,
                                                   tiny_model_factory):
        datasets = [
            synthetic_tabular(np.random.default_rng(i), 80, 20, 4,
                              noise=0.3)
            for i in range(5)
        ]
        result = dinar_initialization(
            tiny_model_factory, datasets, warmup_epochs=3, lr=0.1,
            batch_size=16, byzantine={4: "random"}, seed=0)
        assert 0 <= result.private_layer < 3

    def test_rejects_empty_client_list(self, tiny_model_factory):
        with pytest.raises(ValueError):
            dinar_initialization(tiny_model_factory, [])
