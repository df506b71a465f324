"""Sequential model owning its parameters as one flat buffer.

The model's parameters live in a single contiguous
:class:`~repro.nn.store.WeightStore` buffer plus a parallel flat
gradient buffer; every parameter-carrying layer holds zero-copy shaped
views into those buffers (bound once at construction via
``Layer.adopt_views``).  Training, optimization, DP clipping and
FedProx therefore operate on whole flat vectors, and weight exchange
(`get_store`/`set_store`, `clone`) is a single buffer copy.

Layer indices count *parameter-carrying* layers front to back; that
index is the handle DINAR needs.  "Obfuscate layer p" and "personalize
layer p" both act on the one buffer slice ``Layout.layer_slice(p)``.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import Loss, softmax
from repro.nn.store import Layout, SegmentedView, WeightStore
from repro.nn.workspace import Workspace


class Model:
    """A feed-forward stack of :class:`~repro.nn.layers.Layer` objects."""

    def __init__(self, layers: Sequence[Layer], *,
                 rng: np.random.Generator | None = None,
                 name: str = "model") -> None:
        self.layers = list(layers)
        self.name = name
        # Scratch arena for forward/backward temporaries; process-local
        # and excluded from pickling/cloning (fresh arenas are rebuilt).
        self._workspace: Workspace | None = Workspace()
        self._bind_flat()
        if rng is not None:
            self.attach_rng(rng)

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
        trainable = self.trainable
        if not trainable:
            self._layout = None
            self._store = None
            self._grad_buffer = None
            self._grads_ready = False
            return
        layout = Layout.from_model(self)
        self._layout = layout
        self._store = WeightStore(layout, np.empty(layout.num_params,
                                                   dtype=layout.dtype))
        self._grad_buffer = np.zeros(layout.num_params, dtype=layout.dtype)
        self._rebind_views()
        self._grads_ready = False

    def _rebind_views(self) -> None:
        """Bind every trainable layer's arrays onto the flat buffers.

        Used at construction and again on unpickle: a pickled model
        serializes the layers' view arrays as independent copies, so
        ``__setstate__`` re-adopts them onto the (also deserialized)
        flat weight/gradient buffers to restore the aliasing invariant.
        """
        layout = self._layout
        store = self._store
        grad_buffer = self._grad_buffer
        for idx, layer in enumerate(self.trainable):
            params: dict[str, np.ndarray] = {}
            buffers: dict[str, np.ndarray] = {}
            grads: dict[str, np.ndarray] = {}
            for entry in layout.layer_entries(idx):
                view = store.buffer[entry.offset:entry.stop] \
                    .reshape(entry.shape)
                if entry.trainable:
                    params[entry.key] = view
                    grads[entry.key] = \
                        grad_buffer[entry.offset:entry.stop] \
                        .reshape(entry.shape)
                else:
                    buffers[entry.key] = view
            layer.adopt_views(params, buffers, grads)

    def attach_rng(self, rng: np.random.Generator) -> None:
        """Provide the random source consumed by stochastic layers."""
        for layer in self.layers:
            layer.attach_rng(rng)

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

    def segment_view(self) -> "SegmentedView":
        """The model's named segment plane (cached on the layout).

        One :class:`~repro.nn.store.Segment` per trainable layer, named
        from :meth:`layer_names` — the typed handle for per-layer
        views, norms, masks and noise (see ``repro.nn.store``).
        """
        return self.weight_layout().segmented(tuple(self.layer_names()))

    def num_parameters(self) -> int:
        """Total trainable scalar count across the whole network."""
        return sum(layer.num_parameters() for layer in self.trainable)

    # ------------------------------------------------------------------
    # workspace plane
    # ------------------------------------------------------------------
    @property
    def workspace(self) -> Workspace | None:
        """The scratch arena threaded through forward/backward
        (``None`` when disabled via :meth:`use_workspace`)."""
        return self._workspace

    def use_workspace(self, enabled: bool = True) -> None:
        """Enable (default) or disable the scratch arena.

        Disabling reverts every forward/backward temporary to a fresh
        allocation — the pre-workspace behavior, bitwise identical and
        useful as a benchmark baseline.  Re-enabling starts from an
        empty arena.
        """
        if enabled:
            if self._workspace is None:
                self._workspace = Workspace()
        else:
            self._workspace = None

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Logits for one batch.

        With the workspace enabled the returned array is an arena
        buffer: valid until the next forward pass, after which it is
        overwritten in place.  Callers that hold results across batches
        must copy (as :meth:`predict_logits` does).
        """
        ws = self._workspace
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
        attach = getattr(loss, "attach_workspace", None)
        if attach is not None:
            attach(self._workspace)
        logits = self.forward(x, training=True)
        value = loss.forward(logits, y)
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
        view = self.segment_view()
        vectors = []
        for seg in view:
            vector = view.view(self._grad_buffer, seg)
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
            # with the workspace on, ``first`` is a transient arena
            # buffer — hand the caller an owned copy.
            return first.copy() if self._workspace is not None else first
        out = np.empty((n,) + first.shape[1:], dtype=first.dtype)
        out[:batch_size] = first
        for i in range(batch_size, n, batch_size):
            out[i:i + batch_size] = self.forward(
                x[i:i + batch_size], training=False)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities in evaluation mode."""
        return softmax(self.predict_logits(x))

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

    def __getstate__(self) -> dict:
        """Serialize without the process-local workspace arena.

        Layers drop their per-batch caches via ``Layer.__getstate__``,
        so a pickled model (checkpoints, executor dispatch, deepcopy)
        never ships batch-sized scratch.
        """
        state = self.__dict__.copy()
        state.pop("_workspace", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._workspace = Workspace()
        if self._layout is not None:
            # plain pickling serialized the layers' views as independent
            # arrays; re-adopt them onto the flat buffers.  (For clone()
            # the memo already mapped every view, making this a no-op
            # value-wise.)
            self._rebind_views()

    def clone(self) -> "Model":
        """Independent copy: buffer copies plus a cheap structure copy.

        The layout is immutable and shared; the weight and gradient
        buffers are copied once each, and every bound view is pre-mapped
        (via the deepcopy memo) to the matching view over the new
        buffers, so the clone's layers alias *its own* flat plane
        exactly as the original's alias the original's.
        """
        if self._store is None:
            return copy.deepcopy(self)
        layout = self._layout
        new_buffer = self._store.buffer.copy()
        new_grads = self._grad_buffer.copy()
        memo: dict[int, object] = {
            id(layout): layout,
            id(self._store.buffer): new_buffer,
            id(self._grad_buffer): new_grads,
        }
        for idx, layer in enumerate(self.trainable):
            params = layer.params
            buffers = layer.buffers
            grads = layer.grads
            for entry in layout.layer_entries(idx):
                source = params[entry.key] if entry.trainable \
                    else buffers[entry.key]
                memo[id(source)] = new_buffer[entry.offset:entry.stop] \
                    .reshape(entry.shape)
                if entry.trainable:
                    memo[id(grads[entry.key])] = \
                        new_grads[entry.offset:entry.stop] \
                        .reshape(entry.shape)
        return copy.deepcopy(self, memo)
