"""Flat-buffer weight plane: ``Layout`` + ``WeightStore``.

A model's state is one contiguous vector plus an immutable
:class:`Layout` mapping each ``(layer, key)`` pair to a coordinate
range.  Every subsystem — training, the defenses, DINAR, aggregation,
traffic accounting, checkpoints — exchanges that vector; DINAR's
"layer p" is the single slice ``Layout.layer_slice(p)``.  The layout
also fixes the buffer's *precision* (float64 by default, float32 for
the reduced-precision compute plane — see ``repro.nn.dtypes``); two
layouts with the same geometry but different dtypes are distinct, so
stores of different precisions never silently mix.

Design rules:

* **Layout order is state-dict order** — per layer, keys appear in the
  order the source mapping yields them (a model's ``params`` before its
  ``buffers``).  RNG-driven transforms (obfuscation noise, DP noise, SA
  masks) consume the generator stream in this order, which keeps them
  bit-for-bit reproducible.
* **Zero-copy views** — ``view``/``layer_flat`` return ndarray views
  into the buffer; mutating a view mutates the store.
* **One way in from named arrays** — :meth:`WeightStore.from_layers`
  copies a list of per-layer ``{key: array}`` mappings (an ``.npz``
  archive, a test fixture) into a fresh store.  There is no way back
  out: consumers read views.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.nn.dtypes import DTypeLike, gaussian, resolve_dtype

#: Named arrays, one mapping per layer — the input of ``from_layers``.
NamedLayers = Sequence[Mapping[str, np.ndarray]]


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
    #: Excluded from equality/hash so layouts derived from named arrays
    #: — where the distinction is unknowable — still compare equal to
    #: model-derived layouts with the same geometry.
    trainable: bool = field(default=True, compare=False)

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
                 "_layer_param_slices", "num_trainable", "_segmented")

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
        self._segmented = {}
        self._index_trainable()

    def _index_trainable(self) -> None:
        """Precompute the trainable-coordinate geometry.

        ``_param_entry_slices`` keeps one slice per trainable entry —
        the reduction chunks of :func:`chunked_sq_sum`, matching the
        legacy per-array fold bitwise.  ``_param_segments`` merges
        adjacent trainable entries into maximal runs — the fewest
        slices that cover exactly the trainable coordinates, for
        elementwise ops and contiguous RNG draws.
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
        layer_param_slices: list[slice | None] = []
        for slices in per_layer:
            if not slices:
                layer_param_slices.append(
                    slice(self.num_params, self.num_params))
            elif all(a.stop == b.start
                     for a, b in zip(slices, slices[1:])):
                layer_param_slices.append(
                    slice(slices[0].start, slices[-1].stop))
            else:
                layer_param_slices.append(None)
        self._layer_param_slices = tuple(layer_param_slices)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_layers(cls, weights: NamedLayers) -> "Layout":
        """Derive a layout from per-layer named arrays.

        The dtype is inferred: float32 when *every* array is float32,
        the float64 default otherwise (mixed or non-float inputs are
        coerced to float64).  Every entry is marked trainable.
        """
        entries: list[LayoutEntry] = []
        offset = 0
        all_f32 = True
        for layer_idx, layer in enumerate(weights):
            for key, value in layer.items():
                value = np.asarray(value)
                all_f32 = all_f32 and value.dtype == np.float32
                entries.append(LayoutEntry(
                    layer_idx=layer_idx, key=key,
                    shape=tuple(value.shape), offset=offset,
                    size=int(value.size)))
                offset += int(value.size)
        dtype = np.float32 if entries and all_f32 else np.float64
        return cls(entries, dtype=dtype)

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

    def layer_keys(self, layer_idx: int) -> tuple[str, ...]:
        """Key names of one layer, in layout order."""
        return tuple(e.key for e in self.entries
                     if e.layer_idx == layer_idx)

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

    def layer_param_slice(self, layer_idx: int) -> slice:
        """The contiguous buffer range of one layer's trainable entries.

        Well defined because per-layer layout order is params before
        buffers; raises for exotic layouts where a non-trainable entry
        interleaves a layer's parameters.
        """
        out = self._layer_param_slices[layer_idx]
        if out is None:
            raise ValueError(
                f"layer {layer_idx}: trainable entries are not "
                f"contiguous in this layout")
        return out

    @property
    def nbytes(self) -> int:
        """Dense wire size of a store with this layout (dtype-aware)."""
        return self.num_params * self.dtype.itemsize

    def with_dtype(self, dtype: DTypeLike) -> "Layout":
        """Same geometry in another precision (self when unchanged)."""
        if resolve_dtype(dtype) == self.dtype:
            return self
        return Layout(self.entries, dtype=dtype)

    def segmented(self,
                  names: Sequence[str] | None = None) -> "SegmentedView":
        """The named per-layer :class:`SegmentedView` of this layout.

        ``names`` gives one name per layer (``Model.segment_view``
        passes ``layer_names()``); omitted, layers are named
        ``layer{i}``.  Views are cached per name tuple — repeated
        lookups on hot paths (DP-SGD steps, per-round clipping) cost a
        dict hit.
        """
        key = None if names is None else tuple(names)
        view = self._segmented.get(key)
        if view is None:
            view = SegmentedView(self, names)
            self._segmented[key] = view
        return view

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Rebuild from the constructor arguments: the trainable indexes
        # are recomputed (deterministic, cheap) and the segmented-view
        # cache never travels through pickle.
        return (_rebuild_layout, (self.entries, self.dtype.str))

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


def _rebuild_layout(entries, dtype_str) -> "Layout":
    """Unpickle helper for :meth:`Layout.__reduce__`."""
    return Layout(entries, dtype=dtype_str)


@dataclass(frozen=True)
class Segment:
    """One named layer of a :class:`SegmentedView`.

    A segment is the per-layer handle the segment plane deals in: the
    layer's contiguous *trainable* coordinate range (``params``), its
    full coordinate range including non-trainable buffers (``full``),
    and the per-entry slices that are the bitwise reduction chunks of
    :func:`chunked_sq_sum`.
    """

    index: int
    name: str
    #: Contiguous trainable range, or None for exotic layouts where a
    #: buffer interleaves the layer's parameters (use ``entry_slices``).
    params: slice | None
    #: The whole layer's coordinate range (params and buffers).
    full: slice
    #: One slice per trainable entry, in layout order.
    entry_slices: tuple[slice, ...]

    @property
    def num_params(self) -> int:
        """Trainable scalar count of this segment."""
        return sum(s.stop - s.start for s in self.entry_slices)

    @property
    def has_params(self) -> bool:
        """Whether this segment carries any trainable coordinates."""
        return bool(self.entry_slices)


class SegmentedView:
    """Named, typed per-layer view of a :class:`Layout`.

    The segment plane: every consumer that used to hand-roll a
    ``for segment in layout.param_segments`` loop goes through this
    object instead.  It exposes

    * zero-copy per-segment views of any flat vector
      (:meth:`view`) or ``(clients, params)`` batch (:meth:`batch`),
    * per-segment and whole-model squared norms whose reduction chunks
      reproduce the legacy per-array fold bitwise (:meth:`sq_sum`,
      :meth:`segment_sq_sums`),
    * boolean segment masks over the flat coordinate space
      (:meth:`mask`),
    * the elementwise/RNG primitives the defenses need — Gaussian
      noise drawn per maximal trainable run in layout order
      (:meth:`add_gaussian`), per-segment noise and scaling
      (:meth:`segment_add_gaussian`, :meth:`scale_segment`), the
      FedProx proximal term (:meth:`add_scaled_difference`), global
      norm clipping (:meth:`clip`) and top-k selection
      (:meth:`top_k_indices`) — each bitwise-equal to the hand-rolled
      loop it replaces.

    Obtained via :meth:`Layout.segmented` (cached) or
    ``Model.segment_view()`` (named from ``layer_names()``).
    """

    __slots__ = ("layout", "segments", "_by_name")

    def __init__(self, layout: Layout,
                 names: Sequence[str] | None = None) -> None:
        if names is None:
            names = [f"layer{i}" for i in range(layout.num_layers)]
        names = list(names)
        if len(names) != layout.num_layers:
            raise ValueError(
                f"got {len(names)} segment names for a layout with "
                f"{layout.num_layers} layers")
        self.layout = layout
        per_layer: list[list[slice]] = [
            [] for _ in range(layout.num_layers)]
        for entry in layout.entries:
            if entry.trainable:
                per_layer[entry.layer_idx].append(
                    slice(entry.offset, entry.stop))
        self.segments = tuple(
            Segment(
                index=i, name=names[i],
                params=layout._layer_param_slices[i],
                full=layout.layer_slice(i),
                entry_slices=tuple(per_layer[i]),
            )
            for i in range(layout.num_layers))
        by_name: dict[str, int] = {}
        for seg in self.segments:
            # A repeated name (two identically named layers) stays
            # listable but is rejected on lookup as ambiguous.
            by_name[seg.name] = -1 if seg.name in by_name else seg.index
        self._by_name = by_name

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __getitem__(self, key: int | str) -> Segment:
        return self.resolve(key)

    @property
    def names(self) -> tuple[str, ...]:
        """Segment names, front to back."""
        return tuple(seg.name for seg in self.segments)

    def resolve(self, key: "int | str | Segment") -> Segment:
        """Normalize an index, name or segment to a :class:`Segment`."""
        if isinstance(key, Segment):
            return key
        if isinstance(key, str):
            idx = self._by_name.get(key)
            if idx is None:
                raise KeyError(
                    f"no segment named {key!r}; known: "
                    f"{', '.join(self.names)}")
            if idx < 0:
                raise KeyError(
                    f"segment name {key!r} is ambiguous in this view; "
                    f"use the integer index")
            return self.segments[idx]
        n = len(self.segments)
        idx = int(key)
        if idx < 0:
            idx += n
        if not 0 <= idx < n:
            raise IndexError(f"segment {key} out of range ({n})")
        return self.segments[idx]

    # ------------------------------------------------------------------
    # trainable-coordinate geometry (the legacy loop shapes)
    # ------------------------------------------------------------------
    @property
    def runs(self) -> tuple[slice, ...]:
        """Maximal contiguous trainable runs, in layout order — the
        shape of elementwise updates and contiguous RNG draws
        (= :attr:`Layout.param_segments`)."""
        return self.layout.param_segments

    @property
    def entry_slices(self) -> tuple[slice, ...]:
        """One slice per trainable entry — the bitwise reduction
        chunks (= :attr:`Layout.param_entry_slices`)."""
        return self.layout.param_entry_slices

    # ------------------------------------------------------------------
    # zero-copy views
    # ------------------------------------------------------------------
    def _params_slice(self, seg: Segment) -> slice:
        if seg.params is None:
            raise ValueError(
                f"segment {seg.index} ({seg.name!r}): trainable "
                f"entries are not contiguous in this layout")
        return seg.params

    def view(self, vector: np.ndarray,
             seg: "int | str | Segment") -> np.ndarray:
        """Zero-copy view of one segment's trainable coordinates."""
        return vector[self._params_slice(self.resolve(seg))]

    def full_view(self, vector: np.ndarray,
                  seg: "int | str | Segment") -> np.ndarray:
        """Zero-copy view of one segment's full coordinate range
        (params and non-trainable buffers)."""
        return vector[self.resolve(seg).full]

    def batch(self, matrix: np.ndarray,
              seg: "int | str | Segment") -> np.ndarray:
        """Zero-copy per-segment column block of a ``(clients,
        params)`` batch — each row's slice of this segment."""
        if matrix.ndim != 2 or matrix.shape[1] != self.layout.num_params:
            raise ValueError(
                f"batch shape {matrix.shape} does not match layout "
                f"with {self.layout.num_params} params")
        return matrix[:, self._params_slice(self.resolve(seg))]

    # ------------------------------------------------------------------
    # norms
    # ------------------------------------------------------------------
    def sq_sum(self, vector: np.ndarray) -> float:
        """Whole-model trainable squared norm, folded per entry —
        bitwise-equal to the legacy per-``(layer, key)`` fold (this is
        DP-SGD's clip norm)."""
        return chunked_sq_sum(vector, self.layout.param_entry_slices)

    def segment_sq_sums(self, vector: np.ndarray) -> np.ndarray:
        """Per-segment trainable squared norms, shape ``(J,)``.

        Each segment folds over its own entry slices, so summing the
        returned array reproduces :meth:`sq_sum` exactly (same chunks,
        same order).  Segments without parameters read 0.0.
        """
        return np.array([
            chunked_sq_sum(vector, seg.entry_slices)
            for seg in self.segments])

    # ------------------------------------------------------------------
    # masks
    # ------------------------------------------------------------------
    def mask(self, include: "Sequence[int | str] | None" = None,
             exclude: "Sequence[int | str] | None" = None, *,
             full: bool = False) -> np.ndarray:
        """Boolean coordinate mask selecting whole segments.

        Exactly one of ``include`` / ``exclude`` names the segments;
        the mask is True on the selected segments' trainable
        coordinates (or their full coordinate ranges with
        ``full=True`` — the shape DINAR's whole-layer obfuscation
        protects) and False elsewhere.
        """
        if (include is None) == (exclude is None):
            raise ValueError("pass exactly one of include= / exclude=")
        mask = np.zeros(self.layout.num_params, dtype=bool)
        for key in (include if include is not None else exclude):
            seg = self.resolve(key)
            if full:
                mask[seg.full] = True
            else:
                for sl in seg.entry_slices:
                    mask[sl] = True
        return mask if include is not None else ~mask

    # ------------------------------------------------------------------
    # elementwise / RNG primitives (bitwise-pinned loop shapes)
    # ------------------------------------------------------------------
    def add_gaussian(self, vector: np.ndarray,
                     rng: np.random.Generator, std: float) -> None:
        """Add ``N(0, std^2)`` noise to every trainable coordinate.

        One contiguous draw per maximal trainable run, in layout
        order — the generator stream and addition order of the legacy
        DP-SGD per-array loop, so migrated noise is bitwise-unchanged
        while non-trainable buffers are skipped entirely.
        """
        for run in self.layout.param_segments:
            vector[run] += gaussian(
                rng, std, run.stop - run.start, vector.dtype)

    def segment_add_gaussian(self, vector: np.ndarray,
                             seg: "int | str | Segment",
                             rng: np.random.Generator,
                             std: float) -> None:
        """Add Gaussian noise to one segment's trainable coordinates
        (one contiguous draw per entry, in layout order)."""
        for sl in self.resolve(seg).entry_slices:
            vector[sl] += gaussian(
                rng, std, sl.stop - sl.start, vector.dtype)

    def scale_segment(self, vector: np.ndarray,
                      seg: "int | str | Segment",
                      factor: float) -> None:
        """Scale one segment's trainable coordinates in place."""
        for sl in self.resolve(seg).entry_slices:
            vector[sl] *= factor

    def add_scaled_difference(self, out: np.ndarray, factor: float,
                              a: np.ndarray, b: np.ndarray) -> None:
        """``out += factor * (a - b)`` over trainable coordinates.

        The FedProx proximal term: one vector op per maximal trainable
        run (bitwise-equal to the hand-rolled loop), leaving
        non-trainable coordinates — which carry no gradient — exactly
        untouched.
        """
        for run in self.layout.param_segments:
            out[run] += factor * (a[run] - b[run])

    def clip(self, store: "WeightStore",
             max_norm: float) -> "WeightStore":
        """Scale a store so its global L2 norm is <= ``max_norm``.

        The degenerate one-segment clip (whole-buffer norm, including
        non-trainable coordinates) — exactly the legacy ``clip_store``
        the CDP/WDP delta bound uses, kept bitwise.  Per-segment
        clipping composes :meth:`segment_sq_sums` +
        :meth:`scale_segment` instead (see the LaDP defense).
        """
        if max_norm <= 0:
            raise ValueError(
                f"max_norm must be positive, got {max_norm}")
        norm = store.l2()
        if norm <= max_norm:
            return store.copy()
        return store * (max_norm / norm)

    def top_k_indices(self, vector: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` largest-magnitude coordinates.

        The gradient-compression threshold: whole-buffer
        ``argpartition``, exactly the legacy selection (unordered
        within the kept set, like the loop it replaces).
        """
        if not 1 <= k <= vector.size:
            raise ValueError(
                f"k must be in [1, {vector.size}], got {k}")
        return np.argpartition(np.abs(vector),
                               vector.size - k)[vector.size - k:]

    def segment_top_k_indices(self, vector: np.ndarray,
                              seg: "int | str | Segment",
                              k: int) -> np.ndarray:
        """Absolute indices of one segment's ``k`` largest-magnitude
        trainable coordinates (per-segment sparsification)."""
        seg = self.resolve(seg)
        sl = self._params_slice(seg)
        block = vector[sl]
        if not 1 <= k <= block.size:
            raise ValueError(
                f"k must be in [1, {block.size}] for segment "
                f"{seg.name!r}, got {k}")
        local = np.argpartition(np.abs(block),
                                block.size - k)[block.size - k:]
        return local + sl.start

    def __repr__(self) -> str:
        return (f"SegmentedView(segments={len(self.segments)}, "
                f"params={self.layout.num_params}, "
                f"names=[{', '.join(self.names)}])")


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

    @classmethod
    def from_layers(cls, weights: NamedLayers,
                    layout: Layout | None = None) -> "WeightStore":
        """Copy per-layer named arrays into a fresh store."""
        if layout is None:
            layout = Layout.from_layers(weights)
        if len(weights) != layout.num_layers:
            raise ValueError(
                f"got {len(weights)} layer mappings, layout has "
                f"{layout.num_layers} layers")
        store = cls(layout, np.empty(layout.num_params,
                                     dtype=layout.dtype))
        buf = store.buffer
        counts = [0] * layout.num_layers
        for entry in layout.entries:
            value = np.asarray(weights[entry.layer_idx][entry.key])
            if tuple(value.shape) != entry.shape:
                raise ValueError(
                    f"layer {entry.layer_idx}/{entry.key}: shape "
                    f"{value.shape} != layout {entry.shape}")
            buf[entry.offset:entry.stop] = value.reshape(-1)
            counts[entry.layer_idx] += 1
        for layer_idx, layer in enumerate(weights):
            if len(layer) != counts[layer_idx]:
                extra = set(layer) - set(layout.layer_keys(layer_idx))
                raise KeyError(
                    f"layer {layer_idx} has keys the layout does not "
                    f"own: {sorted(extra)}")
        return store

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

    def readonly_vector(self) -> np.ndarray:
        """The whole buffer as a read-only zero-copy view."""
        v = self.buffer.view()
        v.flags.writeable = False
        return v

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

    def astype(self, dtype: DTypeLike) -> "WeightStore":
        """Copy of this store in another precision (same geometry)."""
        layout = self.layout.with_dtype(dtype)
        if layout is self.layout:
            return self.copy()
        return WeightStore(layout, self.buffer.astype(layout.dtype))

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
