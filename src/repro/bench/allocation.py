"""Allocation accounting for the train-step hot path.

:func:`measure_train_step` drives one full forward + backward +
optimizer step at layer granularity under :mod:`tracemalloc`,
snapshotting NumPy's allocation domain at every layer boundary and
summing the array allocations each phase left behind.  Because the
driver holds a reference to every layer output and input gradient
until the step completes, each batch-sized buffer a layer allocates is
still live at its boundary snapshot and gets counted; arena-backed
buffers were allocated during warm-up (before tracing started) and
never appear.

The count is a *lower bound* — temporaries a layer allocates and frees
within a single call are invisible to boundary snapshots — so a
measured reduction understates the real one.  Peak bytes come from
``tracemalloc.get_traced_memory`` and do include intra-call
temporaries.
"""

from __future__ import annotations

import tracemalloc
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.nn.losses import Loss
from repro.nn.model import Model

__all__ = ["AllocationReport", "measure_train_step"]

#: tracemalloc domain NumPy registers its array-data allocations under.
_NUMPY_DOMAIN = np.lib.tracemalloc_domain

#: Ignore allocations below this size — bookkeeping scalars and shape
#: tuples, not batch-sized scratch.
_SIZE_FLOOR = 1024


@dataclass
class AllocationReport:
    """Array allocations attributable to one full train step."""

    #: Number of NumPy array-data allocations left live at the
    #: boundary of the phase that made them.
    alloc_count: int
    #: Bytes across those allocations.
    alloc_bytes: int
    #: tracemalloc peak (current high-water mark) over the step,
    #: including intra-call temporaries.
    peak_bytes: int


def _numpy_stats(snapshot: tracemalloc.Snapshot,
                 previous: tracemalloc.Snapshot) -> tuple[int, int]:
    """(count, bytes) of new NumPy array allocations between snapshots."""
    domain = tracemalloc.DomainFilter(inclusive=True,
                                      domain=_NUMPY_DOMAIN)
    diff = snapshot.filter_traces([domain]).compare_to(
        previous.filter_traces([domain]), "traceback")
    count = 0
    size = 0
    for stat in diff:
        if stat.count_diff > 0 and stat.size_diff >= _SIZE_FLOOR:
            count += stat.count_diff
            size += stat.size_diff
    return count, size


def measure_train_step(model: Model, x: np.ndarray, y: np.ndarray,
                       loss: Loss, step: Callable[[], None],
                       ) -> AllocationReport:
    """Account one train step's array allocations at layer granularity.

    ``step`` is the optimizer's update callable (``optimizer.step``).
    The caller must have run at least one warm-up step beforehand so
    one-time allocations (arena buffers, optimizer slots) are already
    in place and only per-step churn is measured.
    """
    workspace = model.workspace

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        previous = tracemalloc.take_snapshot()
        count = 0
        size = 0
        held = []  # keep every boundary value alive until the end

        def boundary(value) -> None:
            nonlocal previous, count, size
            held.append(value)
            snapshot = tracemalloc.take_snapshot()
            delta_count, delta_size = _numpy_stats(snapshot, previous)
            count += delta_count
            size += delta_size
            previous = snapshot

        activation = x
        for layer in model.layers:
            activation = layer.forward(activation, training=True,
                                       workspace=workspace)
            boundary(activation)
        boundary(loss.forward(activation, y, workspace=workspace))
        grad = loss.backward()
        boundary(grad)
        for layer in reversed(model.layers):
            grad = layer.backward(grad, workspace=workspace)
            boundary(grad)
        step()
        boundary(None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return AllocationReport(alloc_count=count, alloc_bytes=size,
                            peak_bytes=peak)
