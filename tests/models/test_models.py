"""Architecture tests for every paper model family."""

import numpy as np
import pytest

from repro.models import (
    PAPER_FCNN_HIDDEN,
    ResidualBlock,
    available_models,
    build_audio_m5,
    build_fcnn,
    build_model,
    build_resnet_small,
    build_vgg_small,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from tests.conftest import numeric_gradient_check


class TestFCNN:
    def test_layer_count(self, rng):
        model = build_fcnn(600, 100, rng)
        assert model.num_trainable_layers == 7  # 6 hidden + classifier

    def test_paper_widths_constant(self):
        assert PAPER_FCNN_HIDDEN == (4096, 2048, 1024, 512, 256, 128)

    def test_custom_hidden(self, rng):
        model = build_fcnn(10, 3, rng, hidden=(8, 6))
        assert model.num_trainable_layers == 3
        assert model.predict_logits(rng.standard_normal((2, 10))).shape \
            == (2, 3)

    def test_rejects_empty_hidden(self, rng):
        with pytest.raises(ValueError):
            build_fcnn(10, 3, rng, hidden=())

    def test_uses_tanh(self, rng):
        from repro.nn.activations import Tanh
        model = build_fcnn(10, 3, rng, hidden=(8,))
        assert any(isinstance(layer, Tanh) for layer in model.layers)


class TestResNet:
    def test_forward_shape(self, rng):
        model = build_resnet_small((3, 8, 8), 10, rng)
        out = model.predict_logits(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 10)

    def test_residual_block_is_one_trainable_layer(self, rng):
        model = build_resnet_small((3, 8, 8), 10, rng, num_blocks=2)
        # stem conv + 2 blocks + classifier
        assert model.num_trainable_layers == 4

    def test_residual_block_identity_path(self, rng):
        """With zeroed convs the block is relu(x) (pure skip)."""
        block = ResidualBlock(2, rng)
        for key in block.params:
            block.params[key][...] = 0.0
        x = rng.standard_normal((2, 2, 4, 4))
        out = block.forward(x)
        assert np.allclose(out, np.maximum(x, 0.0))

    def test_residual_block_merged_params(self, rng):
        block = ResidualBlock(4, rng)
        assert set(block.params) == {"conv1.W", "conv1.b",
                                     "conv2.W", "conv2.b"}

    def test_residual_block_gradient_exact(self, rng):
        from repro.nn.layers import Dense, Flatten
        from repro.nn.model import Model
        model = Model([ResidualBlock(2, rng), Flatten(),
                       Dense(2 * 4 * 4, 3, rng)])
        x = rng.standard_normal((2, 2, 4, 4))
        y = rng.integers(0, 3, 2)
        err = numeric_gradient_check(model, x, y, SoftmaxCrossEntropy(), rng)
        assert err < 1e-6

class TestVGG:
    def test_forward_shape(self, rng):
        model = build_vgg_small((3, 8, 8), 43, rng)
        out = model.predict_logits(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 43)

    def test_rejects_indivisible_input(self, rng):
        with pytest.raises(ValueError):
            build_vgg_small((3, 6, 6), 10, rng)

    def test_trainable_layer_count(self, rng):
        model = build_vgg_small((3, 8, 8), 10, rng, widths=(4, 8))
        assert model.num_trainable_layers == 4  # 2 conv + 2 dense


class TestAudio:
    def test_forward_shape(self, rng):
        model = build_audio_m5((1, 256), 36, rng)
        out = model.predict_logits(rng.standard_normal((2, 1, 256)))
        assert out.shape == (2, 36)

    def test_rejects_too_short_waveform(self, rng):
        with pytest.raises(ValueError):
            build_audio_m5((1, 16), 4, rng, widths=(4, 8, 8, 8))


class TestRegistry:
    def test_available_models(self):
        assert set(available_models()) == {"fcnn", "resnet", "vgg", "audio"}

    @pytest.mark.parametrize("name,shape,classes", [
        ("fcnn", (30,), 5),
        ("resnet", (3, 8, 8), 5),
        ("vgg", (3, 8, 8), 5),
        ("audio", (1, 256), 5),
    ])
    def test_build_and_run(self, name, shape, classes, rng):
        model = build_model(name, shape, classes, rng)
        x = rng.standard_normal((2, *shape))
        assert model.predict_logits(x).shape == (2, classes)

    def test_unknown_model_rejected(self, rng):
        with pytest.raises(ValueError):
            build_model("transformer", (10,), 2, rng)

    def test_models_are_trainable(self, rng):
        """Every family fits a tiny memorization problem."""
        model = build_model("resnet", (3, 8, 8), 2, rng)
        x = rng.standard_normal((16, 3, 8, 8))
        y = np.array([0, 1] * 8)
        loss = SoftmaxCrossEntropy()
        optimizer = SGD(model, 0.05)
        start = loss.forward(model.predict_logits(x), y)
        for _ in range(15):
            model.loss_and_grad(x, y, loss)
            optimizer.step()
        end = loss.forward(model.predict_logits(x), y)
        assert end < start
