"""Loss functions.

Losses expose both a batch-mean ``forward``/``backward`` pair for training
and a ``per_example`` view — per-sample losses are the raw material of
membership inference (Fig. 3's loss distributions, the Yeom attack, and
the attack-feature extraction all consume them).

``forward`` borrows a :class:`~repro.nn.workspace.Workspace`
(``Model.loss_and_grad`` passes the model's own): the softmax /
cross-entropy temporaries live in arena buffers owned by the loss's
class, shared by its instances and across batch lengths.
:class:`SoftmaxCrossEntropy` computes log-softmax once and derives the
probabilities as ``exp(log_softmax)`` — exactly how :func:`softmax`
is defined — so its values equal the functions below bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.nn.workspace import Workspace


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    return np.exp(log_softmax(logits))


class Loss:
    """Loss protocol: forward caches, backward returns dL/dlogits."""

    def forward(self, logits: np.ndarray, targets: np.ndarray, *,
                workspace: Workspace) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def per_example(self, logits: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + cross-entropy on integer class labels."""

    def __init__(self) -> None:
        super().__init__()
        # np.arange(n) reused across batches; an epoch sees at most two
        # batch lengths (full and final-partial).
        self._arange_cache: dict[int, np.ndarray] = {}

    def _arange(self, n: int) -> np.ndarray:
        arr = self._arange_cache.get(n)
        if arr is None:
            arr = self._arange_cache[n] = np.arange(n)
        return arr

    def forward(self, logits: np.ndarray, targets: np.ndarray, *,
                workspace: Workspace) -> float:
        n = len(targets)
        self._targets = targets
        ws, owner = workspace, type(self)
        m = ws.request(owner, "max", logits.shape[:-1] + (1,), logits.dtype)
        logits.max(axis=-1, keepdims=True, out=m)
        logp = ws.request(owner, "logp", logits.shape, logits.dtype)
        np.subtract(logits, m, out=logp)
        expd = ws.request(owner, "exp", logits.shape, logits.dtype)
        np.exp(logp, out=expd)
        s = ws.request(owner, "sum", logits.shape[:-1] + (1,), logits.dtype)
        expd.sum(axis=-1, keepdims=True, out=s)
        np.log(s, out=s)
        np.subtract(logp, s, out=logp)
        probs = ws.request(owner, "probs", logits.shape, logits.dtype)
        np.exp(logp, out=probs)
        self._probs = probs
        return float(-logp[self._arange(n), targets].mean())

    def backward(self) -> np.ndarray:
        n = len(self._targets)
        # the arena-held probs buffer is refilled every forward, so the
        # gradient is formed in it in place instead of in a copy.
        grad = self._probs
        grad[self._arange(n), self._targets] -= 1.0
        grad /= n
        self._probs = None
        self._targets = None
        return grad

    def per_example(self, logits: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
        logp = log_softmax(logits)
        return -logp[np.arange(len(targets)), targets]

