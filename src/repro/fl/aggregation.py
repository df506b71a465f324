"""Model aggregation rules, vectorized over the flat weight plane.

FedAvg is the paper's aggregation (§2.1).  Trimmed mean and coordinate
median are extensions (DESIGN.md §6) for composing DINAR with
Byzantine-robust aggregation.

Updates are :class:`~repro.nn.store.WeightStore` values, and no rule
ever stacks them into a ``(num_clients, num_params)`` matrix.  Two
reduction shapes coexist:

* **Streaming** (:class:`StreamingAccumulator`) — the fleet-plane
  default: each arriving flat update is folded into one partial vector
  in client-arrival order, so aggregation-side memory is constant in
  cohort size (the partial vector plus a two-row chunk scratch).  This
  is what lets a round sample thousands-to-millions of clients.
* **Dense** (the rule functions below) — rules that need every client
  row at once (order statistics over the client axis: trimmed mean,
  coordinate median, norm clustering) read the stores one
  ``REDUCE_CHUNK``-wide column block at a time, so their working set
  is one ``(num_clients, REDUCE_CHUNK)`` block whatever the model
  size.  Dense rules declare ``requires_dense = True``; the server
  refuses cohorts above :data:`DENSE_CLIENT_CAP` for them.

The weighted column sum is computed with ``np.einsum`` over column
chunks, which accumulates clients sequentially in the same order as
the legacy per-array ``sum()`` loop while keeping the accumulator
cache-resident (the chunking is what buys the speedup on models larger
than cache).  einsum may contract each multiply-add as a fused FMA,
whose deferred rounding can shift individual coordinates by 1 ULP
relative to a separate multiply-then-add — agreement with the seed's
per-array FedAvg (the property tests' oracle) is therefore ULP-level,
not bitwise.  The streaming accumulator folds each update through the
*same* einsum with the running partial carried as a coefficient-1.0
row, which continues the identical sequential accumulation chain — so
streaming and dense reductions agree to the same envelope (bitwise on
builds whose einsum accumulates strictly in order, which the
accumulator tests verify).

Sort, median and mean work per column, so the order statistics are
exact for any chunk width.  The clustering distance sums squares
within each chunk, so ``REDUCE_CHUNK`` is part of its bitwise
contract.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.nn.store import Layout, WeightStore

#: Column-chunk width for reductions over client rows.  Chunking keeps
#: each partial reduction's working set cache-resident; 64k float64
#: columns was the empirical sweet spot on CPU.
REDUCE_CHUNK = 65536

#: Ceiling on the cohort a dense rule aggregates.  A dense rule's
#: working set is one ``(clients, REDUCE_CHUNK)`` block, and order
#: statistics cap out in usefulness far below fleet scale, so
#: :class:`~repro.fl.server.FLServer` refuses larger cohorts before
#: any client trains.
DENSE_CLIENT_CAP = 1024


def _row(update: WeightStore, layout: Layout) -> np.ndarray:
    """An update's flat buffer, checked against the reduction layout."""
    if update.layout != layout:
        raise ValueError(f"update layout {update.layout} does not match "
                         f"the aggregation layout {layout}")
    return update.buffer


def _layout(updates: Sequence[WeightStore]) -> Layout:
    """The layout every update shares (raises on none or a mismatch)."""
    if not len(updates):
        raise ValueError("cannot aggregate zero updates")
    layout = updates[0].layout
    for update in updates[1:]:
        _row(update, layout)
    return layout


def _column_blocks(updates: Sequence[WeightStore]
                   ) -> Iterator[tuple[slice, np.ndarray]]:
    """The updates' rows, one ``REDUCE_CHUNK``-wide column chunk at a
    time.

    Yields ``(columns, block)``: ``block`` is the rows' ``columns``
    slices gathered into one C-contiguous ``(len(updates), width)``
    array.  One scratch allocation backs every block, so a block is
    valid only until the next is drawn, and callers may overwrite it
    in place (and :func:`_gather` it again).
    """
    num_params = len(updates[0].buffer)
    scratch = np.empty(len(updates) * min(REDUCE_CHUNK, num_params),
                       dtype=updates[0].buffer.dtype)
    for lo in range(0, num_params, REDUCE_CHUNK):
        columns = slice(lo, min(lo + REDUCE_CHUNK, num_params))
        width = columns.stop - lo
        block = scratch[:len(updates) * width].reshape(len(updates),
                                                       width)
        _gather(block, updates, columns)
        yield columns, block


def _gather(block: np.ndarray, updates: Sequence[WeightStore],
            columns: slice) -> None:
    """Copy each update's ``columns`` slice into its row of ``block``."""
    for row, update in zip(block, updates):
        row[:] = update.buffer[columns]


def _weighted_colsum(updates: Sequence[WeightStore], coeffs,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``sum_i coeffs[i] * updates[i]`` per column, chunked.

    ``einsum`` accumulates the client axis sequentially in the order
    of the legacy ``sum(c_i * u_i)`` loop, while the chunking keeps
    throughput high on out-of-cache models.  Each ``c_i * u_i + acc``
    step may execute as one fused multiply-add, so coordinates can
    differ from a separate multiply-then-add by 1 ULP.
    """
    dtype = updates[0].buffer.dtype
    # einsum would otherwise promote float32 rows against float64
    # coefficients; casting the (tiny) coefficient vector keeps the
    # reduction in the rows' precision.  A float64 row sees the exact
    # same call as before.
    coeffs = np.asarray(coeffs, dtype=dtype)
    if out is None:
        out = np.empty(len(updates[0].buffer), dtype=dtype)
    for columns, block in _column_blocks(updates):
        np.einsum("i,ip->p", coeffs, block, out=out[columns])
    return out


class StreamingAccumulator:
    """Folds arriving flat updates into one partial vector.

    The fleet-plane reduction: the first :meth:`fold` reduces its single
    row through the chunked einsum the dense path uses; every later fold
    is one carried step, ``[partial, update]`` weighted ``[1.0, c]``
    through the same einsum, column chunk by column chunk.  Because
    einsum accumulates the client axis sequentially, the carried row
    *continues* the dense reduction's accumulation chain rather than
    starting a new one — a cohort of any size folds to the same value
    the one-shot dense einsum produces (bitwise wherever einsum's
    accumulation is strictly in-order; never worse than the documented
    ULP envelope).

    Memory is one partial vector plus a reused two-row chunk scratch —
    independent of how many clients fold.  The scratch keeps einsum's
    output disjoint from its inputs.

    Weighting has two modes, chosen per :meth:`reset`:

    * ``total_weight=t`` — the final mixing total is known up front (the
      round-closing policy fixes the completion set, and FedAvg weights
      are metadata that travels ahead of the update payloads).  Each
      row's einsum coefficient is ``weight / t``, exactly the
      normalized coefficient vector of the dense FedAvg path.
    * ``total_weight=None`` — plain weighted sum (secure aggregation's
      server step folds with weight 1.0 and rescales after
      :meth:`drain`).
    """

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self._scratch = np.empty(
            (2, min(REDUCE_CHUNK, layout.num_params)), dtype=layout.dtype)
        self._partial = np.empty(layout.num_params, dtype=layout.dtype)
        self.reset()

    def reset(self, total_weight: float | None = None) -> None:
        """Forget all folded rows and (re)declare the weighting mode."""
        if total_weight is not None and not total_weight > 0:
            raise ValueError(
                f"total weight must be positive, got {total_weight}")
        self._total = None if total_weight is None else float(total_weight)
        self._count = 0

    @property
    def count(self) -> int:
        """Updates folded since the last :meth:`reset`."""
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes the accumulator holds — constant in clients folded."""
        return self._scratch.nbytes + self._partial.nbytes

    def fold(self, update: WeightStore, weight: float = 1.0) -> None:
        """Fold one arriving client update with its mixing weight."""
        row = _row(update, self.layout)
        coeff = weight if self._total is None else weight / self._total
        if self._count == 0:
            _weighted_colsum([update], [coeff], out=self._partial)
        else:
            coeffs = np.array([1.0, coeff], dtype=self.layout.dtype)
            num_params = self.layout.num_params
            for lo in range(0, num_params, REDUCE_CHUNK):
                hi = min(lo + REDUCE_CHUNK, num_params)
                pair = self._scratch[:, :hi - lo]
                pair[0] = self._partial[lo:hi]
                pair[1] = row[lo:hi]
                np.einsum("i,ip->p", coeffs, pair,
                          out=self._partial[lo:hi])
        self._count += 1

    def drain(self) -> WeightStore:
        """Finalize the reduction over everything folded so far.

        With a known ``total_weight`` the result is the finished
        weighted mean; otherwise it is the raw weighted sum.  The
        accumulator stays valid — further folds continue from the
        drained partial, and :meth:`reset` starts the next round.
        """
        if self._count == 0:
            raise ValueError("cannot aggregate zero updates")
        return WeightStore(self.layout, self._partial.copy())


# ----------------------------------------------------------------------
# aggregation rules
# ----------------------------------------------------------------------

def fedavg(updates: Sequence[WeightStore],
           num_samples: Sequence[int]) -> WeightStore:
    """Sample-count-weighted average of client updates (McMahan 2017)."""
    layout = _layout(updates)
    if len(updates) != len(num_samples):
        raise ValueError(f"{len(updates)} updates vs "
                         f"{len(num_samples)} sample counts")
    total = float(sum(num_samples))
    if total <= 0:
        raise ValueError("total sample count must be positive")
    coeffs = np.asarray(num_samples, dtype=np.float64) / total
    return WeightStore(layout, _weighted_colsum(updates, coeffs))


def sum_updates(updates: Sequence[WeightStore]) -> WeightStore:
    """Plain element-wise sum (the server step of secure aggregation)."""
    layout = _layout(updates)
    ones = np.ones(len(updates))
    return WeightStore(layout, _weighted_colsum(updates, ones))


def trimmed_mean(updates: Sequence[WeightStore], *,
                 trim: int = 1) -> WeightStore:
    """Coordinate-wise mean after dropping the ``trim`` highest and
    lowest values (extension: Byzantine-robust aggregation)."""
    layout = _layout(updates)
    n = len(updates)
    if 2 * trim >= n:
        raise ValueError(f"trim={trim} removes all of {n} updates")
    out = np.empty(layout.num_params, dtype=layout.dtype)
    for columns, block in _column_blocks(updates):
        block.sort(axis=0)
        out[columns] = block[trim:n - trim].mean(axis=0)
    return WeightStore(layout, out)


def _sorted_median(block: np.ndarray) -> np.ndarray:
    """``np.median(block, axis=0)``, sorting ``block`` in place (faster
    than median's partition on a short client axis): the middle row, or
    the mean of the middle two.  A column holding a NaN sorts it last
    and, as in ``np.median``, gives that NaN.  The bits are median's,
    save the sign of a zero drawn from a +0/-0 tie: sort and partition
    order equal values differently."""
    block.sort(axis=0)
    half, odd = divmod(len(block), 2)
    center = block[half].copy() if odd \
        else (block[half - 1] + block[half]) / 2
    np.copyto(center, block[-1], where=np.isnan(block[-1]))
    return center


def coordinate_median(updates: Sequence[WeightStore]) -> WeightStore:
    """Coordinate-wise median (extension: Byzantine-robust aggregation)."""
    layout = _layout(updates)
    out = np.empty(layout.num_params, dtype=layout.dtype)
    for columns, block in _column_blocks(updates):
        out[columns] = _sorted_median(block)
    return WeightStore(layout, out)


#: Minimum cohort for norm clustering to act; below this the distance
#: multiset is too small to separate and :func:`clustered_mean` falls
#: back to keeping every row (documented fallback, not an error).
CLUSTER_MIN_COHORT = 4

#: Separation factor for the norm clusters: the far cluster is only
#: discarded when its mean distance exceeds this multiple of the near
#: cluster's, so a homogeneous honest cohort is never filtered.
CLUSTER_SEPARATION = 2.0


def _cluster_distances(updates: Sequence[WeightStore],
                       include: np.ndarray | None = None) -> np.ndarray:
    """Each row's L2 distance to the coordinate-median center, chunked
    over columns so no ``(clients, params)`` temporary is allocated.
    Each column's median depends on that column alone, so the center
    is computed chunk by chunk too.

    ``include`` is an optional boolean coordinate mask of shape
    ``(num_params,)``: False coordinates are excluded from the
    distance — how norm clustering ignores DINAR's obfuscated layer.
    Masked coordinates are zeroed in place (not compressed away), so
    every chunk keeps its shape and summation order and an all-True
    mask reproduces the unmasked distances bitwise.
    """
    sq = np.zeros(len(updates))
    for columns, block in _column_blocks(updates):
        # Sorting the block in place and gathering it again moves the
        # same bytes as a private copy, without a second block alive.
        center = _sorted_median(block)
        _gather(block, updates, columns)
        block -= center
        if include is not None:
            block *= include[columns]
        sq += np.einsum("ip,ip->i", block, block)
    return np.sqrt(sq)


def _norm_cluster_keep(dist: np.ndarray) -> np.ndarray:
    """Boolean keep-mask from deterministic 1-D 2-means over distances.

    Centers initialize at the min/max distance and iterate to a fixed
    point; the computation depends only on the distance *multiset*, so
    the mask is client-permutation-equivariant.  The far cluster is
    dropped only when clearly separated (``CLUSTER_SEPARATION``);
    otherwise everything is kept.
    """
    n = len(dist)
    keep_all = np.ones(n, dtype=bool)
    near, far = float(dist.min()), float(dist.max())
    if not far > CLUSTER_SEPARATION * near + 1e-12:
        return keep_all
    for _ in range(32):
        mask = np.abs(dist - near) <= np.abs(dist - far)
        if mask.all() or not mask.any():
            return keep_all
        new_near = float(dist[mask].mean())
        new_far = float(dist[~mask].mean())
        if new_near == near and new_far == far:
            break
        near, far = new_near, new_far
    if not far > CLUSTER_SEPARATION * near + 1e-12:
        return keep_all
    return mask


def clustered_mean(updates: Sequence[WeightStore],
                   num_samples: Sequence[int] | None = None, *,
                   diagnostics: dict | None = None,
                   distance_include: np.ndarray | None = None
                   ) -> WeightStore:
    """Norm-clustering robust mean over flat update rows (extension).

    Compute each row's distance to the coordinate-median center,
    2-means-cluster the distance multiset, discard the far cluster
    when it is clearly separated, and FedAvg the kept rows (sample-
    weighted when ``num_samples`` is given).  Cohorts smaller than
    ``CLUSTER_MIN_COHORT`` keep every row.

    ``distance_include`` restricts the distance metric to a boolean
    coordinate mask (see :func:`_cluster_distances`) — e.g. the
    complement of DINAR's obfuscated segment — while the kept rows are
    still averaged over *all* coordinates.

    ``diagnostics``, when passed, receives ``kept`` / ``filtered``
    (row indices) and ``distances`` — this is how the server reports
    *which* clients a robustness filter rejected, the observable the
    DINAR-looks-byzantine question hinges on.
    """
    layout = _layout(updates)
    n = len(updates)
    if num_samples is not None and len(num_samples) != n:
        raise ValueError(f"{n} updates vs "
                         f"{len(num_samples)} sample counts")
    if distance_include is not None \
            and distance_include.shape != (layout.num_params,):
        raise ValueError(
            f"distance_include shape {distance_include.shape} does not "
            f"match {layout.num_params} params")
    dist = _cluster_distances(updates, distance_include)
    if n < CLUSTER_MIN_COHORT:
        keep = np.ones(n, dtype=bool)
    else:
        keep = _norm_cluster_keep(dist)
    kept = np.flatnonzero(keep)
    if diagnostics is not None:
        diagnostics["kept"] = [int(i) for i in kept]
        diagnostics["filtered"] = [int(i) for i in np.flatnonzero(~keep)]
        diagnostics["distances"] = dist
    if num_samples is None:
        coeffs = np.full(len(kept), 1.0 / len(kept))
    else:
        counts = np.asarray(num_samples, dtype=np.float64)[kept]
        total = float(counts.sum())
        if total <= 0:
            raise ValueError("total sample count must be positive")
        coeffs = counts / total
    return WeightStore(layout, _weighted_colsum(
        [updates[i] for i in kept], coeffs))


# ----------------------------------------------------------------------
# rule capabilities
# ----------------------------------------------------------------------

# Weighted sums fold one arrival at a time; order statistics over the
# client axis need every row at once.  ``requires_dense`` is the
# explicit capability the server consults: streaming rules go through
# StreamingAccumulator in constant memory, dense rules read the
# cohort's stores in column chunks under the server's cohort cap.
fedavg.requires_dense = False
sum_updates.requires_dense = False
trimmed_mean.requires_dense = True
coordinate_median.requires_dense = True
clustered_mean.requires_dense = True

#: Rule name -> callable, with the capability attributes above.
AGGREGATION_RULES = {
    "fedavg": fedavg,
    "sum": sum_updates,
    "trimmed_mean": trimmed_mean,
    "coordinate_median": coordinate_median,
    "clustered": clustered_mean,
}

#: ``FLConfig.aggregator`` / ``--aggregator`` choices: every registry
#: rule a user can pick end-to-end ("sum" is secure aggregation's
#: internal server step, not a standalone aggregator).
AGGREGATOR_CHOICES = ("fedavg", "trimmed_mean", "coordinate_median",
                      "clustered")


def requires_dense(rule) -> bool:
    """Whether an aggregation rule needs every client row at once.

    Unknown rules conservatively report dense: anything that has not
    declared it can stream must not be handed an iterator.
    """
    if isinstance(rule, str):
        rule = AGGREGATION_RULES[rule]
    return bool(getattr(rule, "requires_dense", True))
