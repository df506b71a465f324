"""Wire sizes of the FL message flow.

Cross-silo FL middleware lives or dies on communication: every round
each selected client downloads the global model and uploads an update.
These encoders size both messages; defenses report their *encoded*
upload through ``Defense.upload_nbytes`` (gradient compression uploads
a sparse delta, not a dense model), and the simulation sums the bytes
into its :class:`~repro.fl.costs.CostReport`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.store import WeightStore


def dense_nbytes(weights: WeightStore) -> int:
    """Bytes of a dense encoding of a store, at its own precision — a
    float32 model uploads half the bytes of a float64 one."""
    return weights.layout.nbytes


def sparse_nbytes(weights: WeightStore,
                  reference: WeightStore | None = None, *,
                  index_bytes: int = 4) -> int:
    """Bytes of a sparse (index, value) delta encoding.

    Counts the coordinates that differ from ``reference`` (or are
    non-zero when no reference is given), in one vectorized pass over
    the flat buffers; each costs a value at the store's own itemsize
    plus an index.  This is the wire format gradient compression buys
    its bandwidth savings with.
    """
    if reference is None:
        nonzero = int(np.count_nonzero(weights.buffer))
    else:
        if reference.layout != weights.layout:
            raise ValueError("reference layout does not match the update")
        nonzero = int(np.count_nonzero(weights.buffer != reference.buffer))
    return nonzero * (weights.buffer.itemsize + index_bytes)
