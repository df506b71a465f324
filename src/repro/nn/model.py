"""Sequential model owning its parameters as one flat buffer.

The model's parameters live in a single contiguous
:class:`~repro.nn.store.WeightStore` buffer plus a parallel flat
gradient buffer; every parameter-carrying layer holds zero-copy shaped
views into those buffers (bound once at construction via
``Layer.adopt_views``).  Training, optimization, DP clipping and
FedProx therefore operate on whole flat vectors, and weight exchange
(`get_store`/`set_store`) is a single buffer copy.

A model is process-local: it owns a scratch arena, and the arena
refuses to pickle, so ``pickle.dumps(model)`` and
``copy.deepcopy(model)`` raise ``TypeError``.  Weights cross a process
boundary as buffers or shared-memory rows, never inside a model; a
second model is built from the seeded factory, not copied.

Layer indices count *parameter-carrying* layers front to back; that
index is the handle DINAR needs.  "Obfuscate layer p" and "personalize
layer p" both act on the one buffer slice ``Layout.layer_slice(p)``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import Loss
from repro.nn.store import Layout, WeightStore
from repro.nn.workspace import Workspace


class Model:
    """A feed-forward stack of :class:`~repro.nn.layers.Layer` objects."""

    def __init__(self, layers: Sequence[Layer], *,
                 name: str = "model") -> None:
        self.layers = list(layers)
        self.name = name
        # Scratch arena for forward/backward temporaries; process-local
        # (it refuses to pickle, and so does the model holding it).
        self._workspace = Workspace()
        self._bind_flat()

    def _bind_flat(self) -> None:
        """Move every parameter onto the flat plane (construction-time).

        Allocates the weight store and the parallel gradient buffer —
        both in the layers' common parameter dtype (``Layout.from_model``
        rejects mixed precisions) — then rebinds each trainable layer's
        params/buffers/grads to zero-copy views into them.  Gradient
        coordinates of non-trainable buffers (batch-norm running stats)
        are never written and stay exactly 0.0 — whole-buffer optimizer
        updates are bitwise no-ops there.
        """
        self._grads_ready = False
        trainable = self.trainable
        if not trainable:
            self._layout = None
            self._store = None
            self._grad_buffer = None
            return
        layout = Layout.from_model(self)
        self._layout = layout
        self._store = WeightStore(layout, np.empty(layout.num_params,
                                                   dtype=layout.dtype))
        self._grad_buffer = np.zeros(layout.num_params, dtype=layout.dtype)
        for idx, layer in enumerate(trainable):
            params: dict[str, np.ndarray] = {}
            buffers: dict[str, np.ndarray] = {}
            grads: dict[str, np.ndarray] = {}
            for entry in layout.layer_entries(idx):
                view = self._store.buffer[entry.offset:entry.stop] \
                    .reshape(entry.shape)
                if entry.trainable:
                    params[entry.key] = view
                    grads[entry.key] = \
                        self._grad_buffer[entry.offset:entry.stop] \
                        .reshape(entry.shape)
                else:
                    buffers[entry.key] = view
            layer.adopt_views(params, buffers, grads)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def trainable(self) -> list[Layer]:
        """Parameter-carrying layers, the granularity of DINAR's index p."""
        return [layer for layer in self.layers if layer.has_params]

    @property
    def dtype(self) -> np.dtype:
        """Precision of the flat compute plane (float64 if paramless)."""
        if self._layout is None:
            return np.dtype(np.float64)
        return self._layout.dtype

    @property
    def num_trainable_layers(self) -> int:
        """The paper's J: how many layers carry parameters."""
        return len(self.trainable)

    def layer_names(self) -> list[str]:
        """Names of the parameter-carrying layers, front to back."""
        return [layer.name for layer in self.trainable]

    def num_parameters(self) -> int:
        """Total trainable scalar count across the whole network."""
        return sum(layer.num_parameters() for layer in self.trainable)

    # ------------------------------------------------------------------
    # workspace plane
    # ------------------------------------------------------------------
    @property
    def workspace(self) -> Workspace:
        """The scratch arena threaded through forward/backward."""
        return self._workspace

    def release_scratch(self) -> None:
        """Free the arena: clear it and drop every layer's per-batch
        caches, whose views would keep its buffers alive."""
        self._workspace.clear()
        for layer in self.layers:
            layer.drop_caches()

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Logits for one batch.

        The returned array is an arena buffer (or a prefix of one),
        overwritten in place by the next forward pass of any batch
        length.  Callers that hold results across batches must copy (as
        :meth:`predict_logits` does).

        This is the one place a non-floating batch (binary tabular
        features are stored as ``bool``) becomes the model's
        :attr:`dtype`: it is copied into an ``"input"`` workspace buffer
        keyed on the first layer, which is exact for 0/1 values.
        Floating batches pass through untouched.  The buffer is keyed
        on a layer, not on the model, because the workspace holds its
        owners alive and a model owner would close a reference cycle.
        """
        ws = self._workspace
        if x.dtype.kind != "f":
            cast = ws.request(self.layers[0], "input", x.shape, self.dtype)
            np.copyto(cast, x)
            x = cast
        for layer in self.layers:
            x = layer.forward(x, training=training, workspace=ws)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Input gradient for the last forward batch (same transient
        arena-buffer contract as :meth:`forward`)."""
        ws = self._workspace
        for layer in reversed(self.layers):
            grad = layer.backward(grad, workspace=ws)
        self._grads_ready = True
        return grad

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray,
                      loss: Loss) -> float:
        """One forward + backward pass; layer ``grads`` are left populated."""
        logits = self.forward(x, training=True)
        value = loss.forward(logits, y, workspace=self._workspace)
        self.backward(loss.backward())
        return value

    def per_layer_gradient_vectors(self, x: np.ndarray, y: np.ndarray,
                                   loss: Loss, *,
                                   copy: bool = True) -> list[np.ndarray]:
        """Flattened gradient per trainable layer for one batch.

        This is the measurement underlying the paper's §3 layer-leakage
        analysis: gradients of each layer produced by predictions on a
        batch of (member or non-member) samples.  Each vector is a
        contiguous slice of the flat gradient buffer; with
        ``copy=False`` the slices are zero-copy views, valid until the
        next backward pass overwrites them.
        """
        self.loss_and_grad(x, y, loss)
        layout = self.weight_layout()
        vectors = []
        for i in range(layout.num_layers):
            # A layer's params precede its buffers: one contiguous run.
            slices = layout.layer_param_slices(i)
            vector = self._grad_buffer[slices[0].start:slices[-1].stop]
            vectors.append(vector.copy() if copy else vector)
        return vectors

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_logits(self, x: np.ndarray, *,
                       batch_size: int = 256) -> np.ndarray:
        """Logits in evaluation mode, batched to bound memory.

        The first batch fixes the per-sample output shape and dtype;
        the full result is preallocated once and later batches write
        straight into it (no per-batch list + concatenate churn).
        """
        first = self.forward(x[:batch_size], training=False)
        n = len(x)
        if n <= batch_size:
            # ``first`` is a transient arena buffer — hand the caller
            # an owned copy.
            return first.copy()
        out = np.empty((n,) + first.shape[1:], dtype=first.dtype)
        out[:batch_size] = first
        for i in range(batch_size, n, batch_size):
            out[i:i + batch_size] = self.forward(
                x[i:i + batch_size], training=False)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions in evaluation mode."""
        return self.predict_logits(x).argmax(axis=-1)

    # ------------------------------------------------------------------
    # flat parameter plane
    # ------------------------------------------------------------------
    @property
    def weights(self) -> WeightStore:
        """The *live* flat weight store (zero-copy).

        Mutating its buffer mutates the model — every layer's params
        and buffers are views into it.  Use :meth:`get_store` for an
        independent snapshot.
        """
        if self._store is None:
            raise ValueError(f"{self.name} has no trainable layers")
        return self._store

    @property
    def grad_vector(self) -> np.ndarray:
        """The live flat gradient buffer, parallel to ``weights``.

        Coordinates of non-trainable buffers are permanently 0.0;
        trainable coordinates hold the last backward pass's gradients.
        """
        if self._grad_buffer is None:
            raise ValueError(f"{self.name} has no trainable layers")
        return self._grad_buffer

    @property
    def grads_ready(self) -> bool:
        """Whether a backward pass has populated the gradient buffer."""
        return self._grads_ready

    def weight_layout(self) -> Layout:
        """The model's flat-buffer layout (fixed at construction)."""
        if self._layout is None:
            raise ValueError(f"{self.name} has no trainable layers")
        return self._layout

    def get_store(self) -> WeightStore:
        """Snapshot of all exchanged arrays: one flat buffer copy."""
        return WeightStore(self.weight_layout(),
                           self.weights.buffer.copy())

    def set_store(self, store: WeightStore) -> None:
        """Load a store produced by :meth:`get_store`: one buffer copy."""
        layout = self.weight_layout()
        if store.layout is not layout and store.layout != layout:
            raise ValueError(
                f"{self.name}: store layout {store.layout} does not "
                f"match model layout {layout}")
        self._store.buffer[...] = store.buffer
