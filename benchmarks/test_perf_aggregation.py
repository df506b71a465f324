"""Aggregation throughput: per-array FedAvg vs the flat weight plane.

Times the seed implementation (:func:`fedavg_reference`, a Python
multiply-then-add per named array, read through ``store.view``)
against the store-native reduction over a collected
:class:`UpdateBatch` matrix at 10/50/100 clients on two FCNN sizes,
verifies the two paths agree to within 2 ULP (einsum's FMA contraction
can round single coordinates 1 ULP away from the sequential
reference), and writes ``BENCH_aggregation.json`` at the repo root.

Cohort updates land in the pooled matrix as they arrive (one row copy
per upload, amortized across the round — reported separately as
``collect_seconds``); the aggregation step both paths are timed on
starts from updates already received in their native container: the
list of stores for the per-array walk, the filled matrix for the
store path.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.fl.aggregation import UpdateBatch, fedavg, fedavg_reference
from repro.models.fcnn import DEFAULT_HIDDEN, build_fcnn
from repro.nn.store import WeightStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_aggregation.json"

CLIENT_COUNTS = (10, 50, 100)
REPEATS = 5

#: (name, input_dim, num_classes, hidden widths)
CONFIGS = (
    ("fcnn-small", 100, 100, (64, 64, 64)),
    ("fcnn-purchase100", 600, 100, DEFAULT_HIDDEN),
)


def _best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _make_cohort(template: WeightStore, num_clients: int, rng):
    """Per-client updates plus their FedAvg sample counts."""
    stores = [
        WeightStore(template.layout,
                    rng.standard_normal(template.num_params))
        for _ in range(num_clients)
    ]
    samples = [int(n) for n in rng.integers(20, 200, size=num_clients)]
    return stores, samples


def _collect(batch: UpdateBatch, stores) -> UpdateBatch:
    """What the upload path does as each client's update arrives."""
    batch.reset()
    for store in stores:
        batch.add(store)
    return batch


@pytest.mark.bench
def test_store_fedavg_beats_nested_walk():
    rng = np.random.default_rng(0)
    entries = []
    for name, input_dim, num_classes, hidden in CONFIGS:
        model = build_fcnn(input_dim, num_classes,
                           np.random.default_rng(0), hidden=hidden)
        template = model.get_store()
        batch = UpdateBatch(template.layout,
                            capacity=max(CLIENT_COUNTS))
        for num_clients in CLIENT_COUNTS:
            stores, samples = _make_cohort(template, num_clients, rng)

            old = fedavg_reference(stores, samples)
            new = fedavg(_collect(batch, stores), samples)
            np.testing.assert_array_almost_equal_nulp(
                new.buffer, old.buffer, nulp=2)

            collect_seconds = _best_of(_collect, batch, stores)
            legacy_seconds = _best_of(fedavg_reference, stores, samples)
            store_seconds = _best_of(fedavg, batch, samples)
            entries.append({
                "model": name,
                "params": template.num_params,
                "clients": num_clients,
                "legacy_seconds": round(legacy_seconds, 6),
                "store_seconds": round(store_seconds, 6),
                "collect_seconds": round(collect_seconds, 6),
                "speedup": round(legacy_seconds / store_seconds, 2),
            })

    OUTPUT.write_text(json.dumps({
        "benchmark": "fedavg: nested dict walk vs flat-plane reduction",
        "repeats": REPEATS,
        "entries": entries,
    }, indent=2) + "\n")

    print()
    print(f"{'model':<20}{'params':>9}{'clients':>9}"
          f"{'legacy':>11}{'store':>11}{'speedup':>9}")
    for e in entries:
        print(f"{e['model']:<20}{e['params']:>9}{e['clients']:>9}"
              f"{e['legacy_seconds']:>11.4f}{e['store_seconds']:>11.4f}"
              f"{e['speedup']:>8.1f}x")

    at_50 = [e["speedup"] for e in entries if e["clients"] == 50]
    assert max(at_50) >= 3.0, \
        f"expected >=3x at 50 clients, measured {at_50}"
    assert all(e["speedup"] > 1.0 for e in entries), \
        "store path should never be slower than the nested walk"


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q"])
