"""Flat-buffer weight plane: ``Layout`` + ``WeightStore``.

A model's state is one contiguous vector plus an immutable
:class:`Layout` mapping each ``(layer, key)`` pair to a coordinate
range.  Every subsystem — training, the defenses, DINAR, aggregation,
traffic accounting, checkpoints — exchanges that vector; DINAR's
"layer p" is the single slice ``Layout.layer_slice(p)``.  The layout
holds all per-layer geometry (``layer_slice``, ``layer_param_slices``,
``param_entry_slices``, ``param_segments``); each per-layer operation
is a short loop over those slices in the one module that needs it.
The layout also fixes the buffer's *precision* (float64 by default,
float32 for the reduced-precision compute plane — see
``repro.nn.dtypes``); two layouts with the same geometry but different
dtypes are distinct, so stores of different precisions never silently
mix.

Design rules:

* **Layout order is state-dict order** — per layer, keys appear in the
  order the source mapping yields them (a model's ``params`` before its
  ``buffers``).  RNG-driven transforms (obfuscation noise, DP noise, SA
  masks) consume the generator stream in this order, which keeps them
  bit-for-bit reproducible.
* **Zero-copy views** — ``view``/``layer_flat`` return ndarray views
  into the buffer; mutating a view mutates the store.
* **One format** — a store is built from a layout (a model's, via
  :meth:`Layout.from_model`) and a flat buffer, in memory and on disk
  (a checkpoint saves the buffer and the layout's entries).  There are
  no named-array mappings in or out: consumers read views.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.nn.dtypes import DTypeLike, resolve_dtype


@dataclass(frozen=True)
class LayoutEntry:
    """One named array's coordinate range inside the flat buffer."""

    layer_idx: int
    key: str
    shape: tuple[int, ...]
    offset: int
    size: int
    #: Whether this entry is a trainable parameter (``False`` for
    #: non-trainable buffers such as batch-norm running statistics).
    trainable: bool = True

    @property
    def stop(self) -> int:
        """One past the last buffer index of this array."""
        return self.offset + self.size


class Layout:
    """Immutable map from ``(layer, key)`` to a flat coordinate range.

    Entries are ordered front to back: layer indices are contiguous
    starting at 0, offsets are contiguous starting at 0, and every
    layer's entries occupy one contiguous range (so per-layer slices —
    DINAR's "layer p" — are single buffer slices).
    """

    __slots__ = ("entries", "num_params", "num_layers", "dtype",
                 "_by_key", "_layer_slices", "_hash",
                 "_param_entry_slices", "_param_segments",
                 "_layer_param_slices", "num_trainable")

    def __init__(self, entries: Sequence[LayoutEntry], *,
                 dtype: DTypeLike = np.float64) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("a layout needs at least one entry")
        offset = 0
        layer_idx = 0
        starts: list[int] = [0]
        for entry in entries:
            if entry.offset != offset:
                raise ValueError(
                    f"entry {entry.layer_idx}/{entry.key} at offset "
                    f"{entry.offset}, expected {offset}")
            if entry.size != int(np.prod(entry.shape, dtype=np.int64)):
                raise ValueError(
                    f"entry {entry.layer_idx}/{entry.key}: size "
                    f"{entry.size} != prod{entry.shape}")
            if entry.layer_idx == layer_idx + 1:
                layer_idx += 1
                starts.append(entry.offset)
            elif entry.layer_idx != layer_idx:
                raise ValueError(
                    f"layer indices must be contiguous and ascending; "
                    f"got {entry.layer_idx} after {layer_idx}")
            offset += entry.size
        starts.append(offset)
        self.entries = entries
        self.num_params = offset
        self.num_layers = layer_idx + 1
        self.dtype = resolve_dtype(dtype)
        self._by_key = {(e.layer_idx, e.key): e for e in entries}
        if len(self._by_key) != len(entries):
            raise ValueError("duplicate (layer, key) pair in layout")
        self._layer_slices = tuple(
            slice(starts[i], starts[i + 1])
            for i in range(self.num_layers))
        self._hash = hash((self.entries, self.dtype))
        self._index_trainable()

    def _index_trainable(self) -> None:
        """Precompute the trainable-coordinate geometry.

        ``_param_entry_slices`` keeps one slice per trainable entry —
        the reduction chunks of :func:`chunked_sq_sum`, matching the
        legacy per-array fold bitwise.  ``_param_segments`` merges
        adjacent trainable entries into maximal runs — the fewest
        slices that cover exactly the trainable coordinates, for
        elementwise ops and contiguous RNG draws.  ``_layer_param_slices``
        groups the entry slices by layer.
        """
        entry_slices: list[slice] = []
        segments: list[slice] = []
        per_layer: list[list[slice]] = [[] for _ in range(self.num_layers)]
        for entry in self.entries:
            if not entry.trainable:
                continue
            entry_slices.append(slice(entry.offset, entry.stop))
            if segments and segments[-1].stop == entry.offset:
                segments[-1] = slice(segments[-1].start, entry.stop)
            else:
                segments.append(slice(entry.offset, entry.stop))
            per_layer[entry.layer_idx].append(
                slice(entry.offset, entry.stop))
        self._param_entry_slices = tuple(entry_slices)
        self._param_segments = tuple(segments)
        self.num_trainable = sum(s.stop - s.start for s in entry_slices)
        self._layer_param_slices = tuple(map(tuple, per_layer))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model) -> "Layout":
        """Derive a layout from a model's trainable layers (no copies).

        Keys follow each layer's ``params`` then its ``buffers``, each
        in insertion order.  The dtype is the layers'
        common parameter dtype; a model mixing precisions is rejected —
        the flat plane is single-precision by construction.
        """
        entries: list[LayoutEntry] = []
        offset = 0
        dtypes: set[np.dtype] = set()
        for layer_idx, layer in enumerate(model.trainable):
            arrays = [(k, v, True) for k, v in layer.params.items()] \
                + [(k, v, False) for k, v in layer.buffers.items()]
            for key, value, trainable in arrays:
                dtypes.add(np.asarray(value).dtype)
                entries.append(LayoutEntry(
                    layer_idx=layer_idx, key=key,
                    shape=tuple(value.shape), offset=offset,
                    size=int(value.size), trainable=trainable))
                offset += int(value.size)
        if len(dtypes) > 1:
            raise ValueError(
                f"model mixes parameter dtypes "
                f"{sorted(d.name for d in dtypes)}; the flat plane "
                f"needs one uniform precision")
        return cls(entries, dtype=dtypes.pop() if dtypes else np.float64)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def entry(self, layer_idx: int, key: str) -> LayoutEntry:
        """The entry for one named array (raises ``KeyError``)."""
        return self._by_key[(layer_idx, key)]

    def layer_slice(self, layer_idx: int) -> slice:
        """The contiguous buffer range covering one whole layer."""
        return self._layer_slices[layer_idx]

    def layer_entries(self, layer_idx: int) -> tuple[LayoutEntry, ...]:
        """All entries of one layer, in layout order."""
        return tuple(e for e in self.entries if e.layer_idx == layer_idx)

    def layer_param_slices(self, layer_idx: int) -> tuple[slice, ...]:
        """One buffer slice per trainable entry of one layer, in layout
        order (empty for a layer holding only buffers)."""
        return self._layer_param_slices[layer_idx]

    @property
    def param_entry_slices(self) -> tuple[slice, ...]:
        """One buffer slice per *trainable* entry, in layout order.

        These are the reduction chunks whenever a squared-norm over the
        trainable coordinates must reproduce the legacy per-array fold
        bitwise (DP-SGD clipping, ADGD smoothness estimates) — see
        :func:`chunked_sq_sum`.
        """
        return self._param_entry_slices

    @property
    def param_segments(self) -> tuple[slice, ...]:
        """Maximal contiguous runs of *trainable* coordinates.

        The fewest slices covering exactly the trainable coordinates;
        elementwise updates and contiguous Gaussian draws over these
        segments are bitwise identical to the legacy per-array loop
        while skipping non-trainable buffers entirely.
        """
        return self._param_segments

    @property
    def nbytes(self) -> int:
        """Dense wire size of a store with this layout (dtype-aware)."""
        return self.num_params * self.dtype.itemsize

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Layout):
            return NotImplemented
        return self.dtype == other.dtype and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"Layout(layers={self.num_layers}, "
                f"arrays={len(self.entries)}, params={self.num_params}, "
                f"dtype={self.dtype.name})")


class WeightStore:
    """One model's weights as a contiguous vector + layout.

    The buffer lives in the layout's dtype (float64 unless the layout
    says otherwise); incoming buffers of another precision are coerced.

    Supports zero-copy per-layer/per-key views and vectorized
    arithmetic (``+``, ``-``, scalar ``*``, in-place variants).
    """

    __slots__ = ("layout", "buffer")

    def __init__(self, layout: Layout,
                 buffer: np.ndarray | None = None) -> None:
        if buffer is None:
            buffer = np.zeros(layout.num_params, dtype=layout.dtype)
        buffer = np.asarray(buffer)
        if buffer.ndim != 1 or buffer.size != layout.num_params:
            raise ValueError(
                f"buffer shape {buffer.shape} does not match layout "
                f"with {layout.num_params} params")
        if buffer.dtype != layout.dtype:
            buffer = buffer.astype(layout.dtype)
        self.layout = layout
        self.buffer = buffer

    # ------------------------------------------------------------------
    # zero-copy views
    # ------------------------------------------------------------------
    def view(self, layer_idx: int, key: str) -> np.ndarray:
        """Writable zero-copy view of one named array."""
        entry = self.layout.entry(layer_idx, key)
        return self.buffer[entry.offset:entry.stop].reshape(entry.shape)

    def layer_flat(self, layer_idx: int) -> np.ndarray:
        """Writable flat view of one whole layer's coordinate range."""
        return self.buffer[self.layout.layer_slice(layer_idx)]

    # ------------------------------------------------------------------
    # vectorized arithmetic
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "WeightStore") -> None:
        if self.layout is not other.layout \
                and self.layout != other.layout:
            raise ValueError("stores have incompatible layouts")

    def __add__(self, other: "WeightStore") -> "WeightStore":
        self._check_compatible(other)
        return WeightStore(self.layout, self.buffer + other.buffer)

    def __sub__(self, other: "WeightStore") -> "WeightStore":
        self._check_compatible(other)
        return WeightStore(self.layout, self.buffer - other.buffer)

    def __mul__(self, factor: float) -> "WeightStore":
        return WeightStore(self.layout, self.buffer * float(factor))

    __rmul__ = __mul__

    def __truediv__(self, divisor: float) -> "WeightStore":
        return WeightStore(self.layout, self.buffer / float(divisor))

    def __neg__(self) -> "WeightStore":
        return WeightStore(self.layout, -self.buffer)

    def __iadd__(self, other: "WeightStore") -> "WeightStore":
        self._check_compatible(other)
        self.buffer += other.buffer
        return self

    def __isub__(self, other: "WeightStore") -> "WeightStore":
        self._check_compatible(other)
        self.buffer -= other.buffer
        return self

    def __imul__(self, factor: float) -> "WeightStore":
        self.buffer *= float(factor)
        return self

    # ------------------------------------------------------------------
    # reductions / comparisons
    # ------------------------------------------------------------------
    def l2(self) -> float:
        """Global L2 norm over the whole buffer."""
        return float(np.sqrt((self.buffer ** 2).sum()))

    def allclose(self, other: "WeightStore", *,
                 atol: float = 1e-9) -> bool:
        """Same layout and numerically equal buffers."""
        if self.layout != other.layout:
            return False
        return bool(np.allclose(self.buffer, other.buffer, atol=atol))

    # ------------------------------------------------------------------
    # allocation helpers
    # ------------------------------------------------------------------
    def copy(self) -> "WeightStore":
        """Independent store with the same layout and values."""
        return WeightStore(self.layout, self.buffer.copy())

    def zeros_like(self) -> "WeightStore":
        """Zero-filled store with the same layout."""
        return WeightStore(self.layout,
                           np.zeros(self.layout.num_params,
                                    dtype=self.layout.dtype))

    @property
    def num_params(self) -> int:
        return self.layout.num_params

    @property
    def nbytes(self) -> int:
        """Dense wire size in the store's dtype (= ``buffer.nbytes``)."""
        return self.buffer.nbytes

    def __repr__(self) -> str:
        return (f"WeightStore(layers={self.layout.num_layers}, "
                f"params={self.num_params}, "
                f"dtype={self.layout.dtype.name})")


def chunked_sq_sum(vector: np.ndarray,
                   chunks: Sequence[slice]) -> float:
    """Sum of squares of ``vector`` over ``chunks``, folded per chunk.

    ``float((vector ** 2).sum())`` over the whole buffer uses one
    pairwise-summation tree and is NOT bitwise equal to the legacy
    Python fold ``sum(float((g ** 2).sum()) for g in arrays)``.  This
    left fold over per-chunk sums *is* — pass
    :attr:`Layout.param_entry_slices` (one slice per legacy array) to
    reproduce dict-plane gradient norms exactly.

    The accumulator is always float64: squares are computed in the
    vector's own dtype, but each chunk reduction and the fold run in
    double precision (a no-op for float64 input, and the numerically
    sane choice for float32 buffers, whose clip norms would otherwise
    degrade with parameter count).
    """
    total = 0.0
    for chunk in chunks:
        total += float((vector[chunk] ** 2).sum(dtype=np.float64))
    return total
