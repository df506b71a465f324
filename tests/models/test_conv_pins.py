"""Bit pins for the convolutional model families.

The golden trajectory pins cover Dense and BatchNorm only.  These
digests pin one float64 ``loss_and_grad``-shaped step of small audio
M5, VGG and ResNet builds: the training-mode logits, the input
gradient and the flat gradient buffer.  Between them they reach every
convolution and pooling path (strided and padded 1-D convolution,
padded 2-D convolution, max pooling with ReLU-zero ties, average
pooling) forwards and backwards.  A refactor of those kernels must
keep every digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models import build_audio_m5, build_resnet_small, build_vgg_small
from repro.nn.losses import SoftmaxCrossEntropy

#: family -> (builder, input shape, digests of logits, input gradient
#: and gradient buffer).
PINS = {
    "audio": (build_audio_m5, (1, 512), (
        "0b58a4b10e936c17fa42996bc782ec913080e7a8f344241bd90b8f2908396b36",
        "bd6257cd0cdf1fc19199aefeff8a85222a3c20eb1c03d5e7f27049358f81c537",
        "760897b267888f4d131a080dea53e64f849644719bebe056ad1d57315543d18b",
    )),
    "vgg": (build_vgg_small, (3, 8, 8), (
        "cad9de6eca261b066379f00539fdfb287460b5e28417b9c0dc8d474349351283",
        "7dabffbfa6c66f59b13f618ac1566cbd7826f934aa8c03a381a00db9d7f254d8",
        "46eba1f85a9f50015ee669ca055ba6f1641adb2925a739d58a62ddc8012ba60b",
    )),
    "resnet": (build_resnet_small, (3, 8, 8), (
        "34ff601436fb490e37408cf828e052d858f0cda32d312f6a683c875d124aed6a",
        "4b1f7a7eaa60480c21343a869a96f76d53e27ce7afa216be27a9dbce7f9b0dfb",
        "0bf25ff723ec1e05296a4c984b7bd9247d5c75c4e8e3f441aa461de55864a752",
    )),
}

NUM_CLASSES = 5
BATCH = 6


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def conv_step_digests(family: str) -> tuple[str, str, str]:
    """Digests of one seeded float64 forward/backward of ``family``."""
    builder, shape, _ = PINS[family]
    rng = np.random.default_rng(7)
    model = builder(shape, NUM_CLASSES, rng)
    x = rng.standard_normal((BATCH,) + shape)
    y = rng.integers(0, NUM_CLASSES, BATCH)
    loss = SoftmaxCrossEntropy()
    logits = model.forward(x, training=True)
    logits_digest = _digest(logits)
    loss.forward(logits, y, workspace=model.workspace)
    dx = model.backward(loss.backward())
    return logits_digest, _digest(dx), _digest(model.grad_vector)


@pytest.mark.parametrize("family", sorted(PINS))
def test_conv_step_is_pinned(family):
    assert conv_step_digests(family) == PINS[family][2]


@pytest.mark.parametrize("family", sorted(PINS))
def test_eval_logits_equal_training_logits(family):
    """No layer of these nets behaves differently in eval mode, so
    ``predict_logits`` must reproduce the pinned training logits."""
    builder, shape, _ = PINS[family]
    rng = np.random.default_rng(7)
    model = builder(shape, NUM_CLASSES, rng)
    x = rng.standard_normal((BATCH,) + shape)
    logits = model.predict_logits(x)
    assert _digest(logits) == PINS[family][2][0]
