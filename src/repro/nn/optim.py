"""Optimizers over the flat parameter plane.

Every update rule operates on the model's whole flat weight buffer and
flat gradient buffer in one shot — no per-``(layer, key)`` Python loop
— with optimizer state held as flat vectors of the same length.
Gradient coordinates of non-trainable buffers (batch-norm running
statistics) are permanently zero, which makes every whole-buffer update
a bitwise no-op there, so the flat rules reproduce the legacy per-array
loops bit for bit.  The adaptive rules and momentum SGD write each
step's temporaries with ``out=`` into work vectors kept for the
optimizer's life, in the operation order of the plain expression, so a
step allocates nothing and its bits equal that expression's.

``Adagrad`` implements Algorithm 1 (lines 8–14) of the paper verbatim:
cumulative squared gradients ``G`` and the update
``theta <- theta - lr * g / sqrt(G + 1e-5)`` (the stabilizer sits *inside*
the square root, as written in the paper).  The remaining optimizers back
the Fig. 11 ablation study: Adam, AdaMax, RMSProp, plain/momentum SGD and
ADGD (Malitsky & Mishchenko's adaptive gradient descent without descent).
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.model import Model
from repro.nn.store import chunked_sq_sum


class Optimizer:
    """Base optimizer bound to a model's flat parameter plane.

    State slots (:meth:`_slot`) are flat vectors parallel to the weight
    buffer, keyed by name (``"momentum"``, ``"accum"``, ``"m"``, …), so
    a client can keep its optimizer across FL rounds even though the
    model weights are overwritten by the server at the start of each
    round.
    """

    def __init__(self, model: Model, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.model = model
        self.lr = lr
        self.state: dict[str, np.ndarray] = {}
        self._work: list[np.ndarray] = []
        self.steps = 0
        # Model structure is fixed after construction, so this is a
        # constant; a parameterless model makes step() a no-op.
        self._paramless = model.num_trainable_layers == 0

    def _flat_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The live (weights, gradients) buffer pair, post-backward."""
        if not self.model.grads_ready:
            raise RuntimeError(
                f"no gradients on {self.model.name}; run "
                "loss_and_grad before step()")
        return self.model.weights.buffer, self.model.grad_vector

    def step(self) -> None:
        """Apply one update from the gradients currently on the model."""
        self.steps += 1
        if self._paramless:
            return
        params, grads = self._flat_buffers()
        self._update_flat(params, grads)

    def _update_flat(self, params: np.ndarray,
                     grads: np.ndarray) -> None:
        raise NotImplementedError

    def _slot(self, name: str) -> np.ndarray:
        """A named flat state vector, zero-initialized on first use.

        Allocated in the weight buffer's dtype so optimizer state never
        drags a float32 plane back up to double precision.
        """
        buf = self.state.get(name)
        if buf is None:
            buf = np.zeros_like(self.model.weights.buffer)
            self.state[name] = buf
        return buf

    def _scratch(self, count: int) -> list[np.ndarray]:
        """``count`` work vectors shaped like the weight buffer.

        Kept for the optimizer's life and overwritten by every step's
        ``out=`` writes, so an update allocates nothing per step.  They
        carry nothing between steps and are not part of ``state``.
        """
        while len(self._work) < count:
            self._work.append(np.empty_like(self.model.weights.buffer))
        return self._work[:count]

    def reset(self) -> None:
        """Drop accumulated state (fresh start, e.g. for a new FL task)."""
        self.state.clear()
        self.steps = 0


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, model: Model, lr: float,
                 momentum: float = 0.0) -> None:
        super().__init__(model, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum

    def _update_flat(self, params: np.ndarray,
                     grads: np.ndarray) -> None:
        if self.momentum:
            buf = self._slot("momentum")
            buf *= self.momentum
            buf += grads
            step, = self._scratch(1)
            np.multiply(self.lr, buf, out=step)
            params -= step
        else:
            params -= self.lr * grads


class Adagrad(Optimizer):
    """The paper's adaptive model training (Algorithm 1, lines 8–14)."""

    def __init__(self, model: Model, lr: float, eps: float = 1e-5) -> None:
        super().__init__(model, lr)
        self.eps = eps

    def _update_flat(self, params: np.ndarray,
                     grads: np.ndarray) -> None:
        accum = self._slot("accum")
        denom, step = self._scratch(2)
        np.square(grads, out=denom)
        accum += denom
        # params -= (lr * g) / sqrt(G + eps)
        np.add(accum, self.eps, out=denom)
        np.sqrt(denom, out=denom)
        np.multiply(self.lr, grads, out=step)
        np.divide(step, denom, out=step)
        params -= step


class RMSProp(Optimizer):
    """RMSProp with exponentially decayed squared-gradient average."""

    def __init__(self, model: Model, lr: float, decay: float = 0.9,
                 eps: float = 1e-8) -> None:
        super().__init__(model, lr)
        self.decay = decay
        self.eps = eps

    def _update_flat(self, params: np.ndarray,
                     grads: np.ndarray) -> None:
        accum = self._slot("accum")
        denom, step = self._scratch(2)
        accum *= self.decay
        np.square(grads, out=denom)
        np.multiply(1.0 - self.decay, denom, out=denom)
        accum += denom
        # params -= (lr * g) / (sqrt(G) + eps)
        np.sqrt(accum, out=denom)
        denom += self.eps
        np.multiply(self.lr, grads, out=step)
        np.divide(step, denom, out=step)
        params -= step


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, model: Model, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(model, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def _update_flat(self, params: np.ndarray,
                     grads: np.ndarray) -> None:
        m = self._slot("m")
        v = self._slot("v")
        denom, step = self._scratch(2)
        m *= self.beta1
        np.multiply(1.0 - self.beta1, grads, out=step)
        m += step
        v *= self.beta2
        np.square(grads, out=denom)
        np.multiply(1.0 - self.beta2, denom, out=denom)
        v += denom
        # params -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(v, 1.0 - self.beta2 ** self.steps, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, 1.0 - self.beta1 ** self.steps, out=step)
        np.multiply(self.lr, step, out=step)
        np.divide(step, denom, out=step)
        params -= step


class AdaMax(Optimizer):
    """AdaMax — the infinity-norm variant of Adam (Kingma & Ba, 2015)."""

    def __init__(self, model: Model, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(model, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def _update_flat(self, params: np.ndarray,
                     grads: np.ndarray) -> None:
        m = self._slot("m")
        u = self._slot("u")
        denom, step = self._scratch(2)
        m *= self.beta1
        np.multiply(1.0 - self.beta1, grads, out=step)
        m += step
        np.multiply(self.beta2, u, out=u)
        np.abs(grads, out=denom)
        np.maximum(u, denom, out=u)
        # params -= (lr * m_hat) / (u + eps)
        np.add(u, self.eps, out=denom)
        np.divide(m, 1.0 - self.beta1 ** self.steps, out=step)
        np.multiply(self.lr, step, out=step)
        np.divide(step, denom, out=step)
        params -= step


class ADGD(Optimizer):
    """Adaptive gradient descent without descent (Malitsky & Mishchenko).

    A single scalar step size is adapted from the observed local
    smoothness ``||x_k - x_{k-1}|| / (2 ||g_k - g_{k-1}||)``; no
    hyper-parameter beyond the initial step.

    The original rule targets deterministic gradients.  With minibatch
    noise the smoothness estimate ``dx / (2 dg)`` is corrupted in both
    directions — gradient noise inflates ``dg`` (collapsing the step
    to zero) while the ``sqrt(1 + theta)`` growth path can run away —
    so the adapted step is clamped to ``[lr / cap_factor,
    lr * cap_factor]``, a standard stochastic safeguard.

    Snapshots of the previous iterate/gradient are single flat buffer
    copies, and the norms fold per layout entry
    (:func:`~repro.nn.store.chunked_sq_sum`) over the trainable
    coordinates only, reproducing the legacy per-array reduction
    bitwise.
    """

    def __init__(self, model: Model, lr: float,
                 cap_factor: float = 2.0) -> None:
        super().__init__(model, lr)
        if cap_factor <= 1.0:
            raise ValueError(f"cap_factor must be > 1, got {cap_factor}")
        self._cap = cap_factor * lr
        self._floor = lr / cap_factor
        self._lam = lr
        self._theta = float("inf")
        self._prev_params: np.ndarray | None = None
        self._prev_grads: np.ndarray | None = None

    def step(self) -> None:
        self.steps += 1
        if self._paramless:
            return
        params, grads = self._flat_buffers()
        if self._prev_params is not None:
            chunks = self.model.weight_layout().param_entry_slices
            dx = math.sqrt(
                chunked_sq_sum(params - self._prev_params, chunks))
            dg = math.sqrt(
                chunked_sq_sum(grads - self._prev_grads, chunks))
            candidate = math.sqrt(1.0 + self._theta) * self._lam
            if dg > 1e-12:
                candidate = min(candidate, dx / (2.0 * dg))
            candidate = min(max(candidate, self._floor), self._cap)
            self._theta = candidate / self._lam
            self._lam = candidate

        self._prev_params = params.copy()
        self._prev_grads = grads.copy()
        params -= self._lam * grads

    def _update_flat(self, params: np.ndarray,
                     grads: np.ndarray) -> None:  # pragma: no cover
        raise RuntimeError("ADGD overrides step() directly")

    def reset(self) -> None:
        super().reset()
        self._lam = self.lr
        self._theta = float("inf")
        self._prev_params = None
        self._prev_grads = None


_REGISTRY = {
    "sgd": SGD,
    "adagrad": Adagrad,
    "rmsprop": RMSProp,
    "adam": Adam,
    "adamax": AdaMax,
    "adgd": ADGD,
}


def make_optimizer(name: str, model: Model, lr: float, **kwargs) -> Optimizer:
    """Build an optimizer by name (the Fig. 11 ablation switch)."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(f"unknown optimizer {name!r}; "
                         f"known: {sorted(_REGISTRY)}") from None
    return cls(model, lr, **kwargs)


def optimizer_names() -> list[str]:
    """Names accepted by :func:`make_optimizer`."""
    return sorted(_REGISTRY)
