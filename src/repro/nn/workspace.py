"""Workspace plane: a per-model arena of reusable scratch buffers.

The train-step hot path used to re-allocate every batch-sized
temporary on every batch: im2col patch buffers, layer outputs,
activation masks, batch-norm centered/normalized arrays, `_col2im`
scatter targets, softmax/cross-entropy temporaries.  The
:class:`Workspace` arena makes those allocations one-time: each scratch
array is requested by ``(layer index, role, shape, dtype)``, sized
lazily on first use, and handed back — the *same* buffer, or a
leading-axis prefix of it — on every later batch.

This mirrors how the ``WeightStore`` made the weight plane one buffer:
the workspace makes the *scratch* plane a fixed set of buffers, and it
is the only place layers and losses get scratch from.  Every write
uses the ``out=`` form of the exact legacy expression, so the
arithmetic equals the allocating code the arena replaced, bitwise.

Keying rules
------------

* **owner** — the requesting layer, or a loss's *class* (one
  forward/backward runs per model at a time, so every loss instance
  shares one buffer set).  Owners are interned to a small integer
  index in first-use order, so two layers with identical shapes never
  share a buffer.
* **role** — a short string naming the buffer's job (``"cols"``,
  ``"out"``, ``"mask"``, ...) within one forward/backward pair.
* **trailing shape / dtype** — the key holds ``shape[1:]``; the
  leading (batch) axis is capacity.  A shorter request gets
  ``buffer[:n]``, a longer one reallocates (a miss, reported
  ``fresh``).  A C-contiguous prefix keeps its strides and base, so a
  partial batch computes bitwise as its own buffer would, and padding
  borders on trailing axes stay intact.  ``Layer._scratch_like``
  requests in memory order, so a batch axis not first in memory stays
  in the trailing key and never shares.

Lifecycle and fork semantics
----------------------------

A workspace belongs to exactly one :class:`~repro.nn.model.Model` and
dies with it: losses receive it as a ``forward`` argument and keep no
handle, so no cycle runs through it and refcounting frees it (and the
layers and flat-buffer views it holds) as soon as the model is
dropped.  An array a forward returns is valid only until the next
request for its key, of any batch length.  A workspace is
**process-local**: pickling one raises ``TypeError``, and so does
pickling or deep-copying the model that holds it, so it never appears
in registry rows, checkpoints, or executor task/result messages.
Forked executor workers inherit the parent's arena pages copy-on-write
and then fill their own private copies — scratch contents never travel
between processes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Arena of reusable scratch buffers keyed by
    ``(owner index, role, trailing shape, dtype)``, with the leading
    axis as capacity."""

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        # id(owner) -> dense index; the parallel list keeps each owner
        # alive so a recycled id can never alias another layer's keys.
        self._owner_ids: dict[int, int] = {}
        self._owners: list[object] = []
        #: Buffers served from the arena (steady-state requests).
        self.hits = 0
        #: Buffers allocated because their key was new.
        self.misses = 0

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    def owner_index(self, owner: object) -> int:
        """The dense layer index of ``owner``, assigned on first use."""
        idx = self._owner_ids.get(id(owner))
        if idx is None:
            idx = len(self._owners)
            self._owner_ids[id(owner)] = idx
            self._owners.append(owner)
        return idx

    def request(self, owner: object, role: str, shape: tuple[int, ...],
                dtype: np.dtype | type | str) -> np.ndarray:
        """Scratch of ``shape`` for one ``(owner, role, dtype)``: the held
        buffer, or its ``[:shape[0]]`` prefix.

        Contents are **unspecified** (uninitialized on a miss, an
        earlier batch's values on a hit): the caller must fully
        overwrite the buffer before reading it.  Use :meth:`zeros` for
        scatter-add targets that rely on a zeroed start.
        """
        return self.request_info(owner, role, shape, dtype)[0]

    def request_info(self, owner: object, role: str, shape: tuple[int, ...],
                     dtype: np.dtype | type | str
                     ) -> tuple[np.ndarray, bool]:
        """Like :meth:`request`, also reporting whether the buffer is
        freshly allocated.  Lets callers run one-time initialization
        (e.g. zeroing a padded image's constant border) only on a miss.
        """
        shape = tuple(shape)
        key = (self.owner_index(owner), role, shape[1:], np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None or len(buffer) < shape[0]:
            buffer = np.empty(shape, dtype=key[3])
            self._buffers[key] = buffer
            self.misses += 1
            return buffer, True
        self.hits += 1
        return (buffer if len(buffer) == shape[0] else buffer[:shape[0]],
                False)

    def zeros(self, owner: object, role: str, shape: tuple[int, ...],
              dtype: np.dtype | type | str) -> np.ndarray:
        """Like :meth:`request`, but zero-filled on every call."""
        buffer = self.request(owner, role, shape, dtype)
        buffer.fill(0)
        return buffer

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def num_buffers(self) -> int:
        """How many distinct scratch buffers the arena holds."""
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held across all scratch buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def keys(self) -> list[tuple]:
        """The arena's ``(owner index, role, trailing shape, dtype)``
        keys."""
        return sorted(self._buffers, key=repr)

    def clear(self) -> None:
        """Drop every buffer (and owner registration), keeping counters."""
        self._buffers.clear()
        self._owner_ids.clear()
        self._owners.clear()

    # ------------------------------------------------------------------
    # process-locality
    # ------------------------------------------------------------------
    def __reduce__(self):
        raise TypeError(
            "Workspace is process-local scratch and must never be "
            "pickled; neither may the model that holds it, so send "
            "weight buffers and build the model in the other process")

    def __repr__(self) -> str:
        return (f"Workspace({self.num_buffers} buffers, "
                f"{self.nbytes} bytes, hits={self.hits}, "
                f"misses={self.misses})")
